package trainer

import (
	"sync"
	"sync/atomic"

	"inf2vec/internal/rng"
)

// Pass is one deterministic synchronous-parallel pass over Units work units.
// The pass proceeds in rounds of Block units: within a round, workers
// Prepare units concurrently — reading the round-start parameters and each
// unit's own keyed RNG stream, writing only that unit's scratch — and then
// the calling goroutine Commits the round's scratches serially in unit
// order. Because the unit streams (rng.Keyed of Seed and the unit id), the
// round boundaries (fixed Block), and the commit order are all independent
// of how many workers prepared them, the result is bitwise identical at any
// worker count; and because preparation never writes shared state, the pass
// is race-free.
//
// The price of determinism is one round of staleness: a unit's gradients are
// computed against parameters up to Block-1 commits old. Block therefore
// trades throughput (bigger rounds amortize the serial commit and the
// barrier) against fidelity to pure sequential SGD (smaller rounds track the
// live parameters more closely). The baselines use small blocks — tens to a
// few hundred units — where the drift is negligible next to SGD's own noise.
type Pass struct {
	// Units is the number of work units in the pass; units are identified by
	// their index in [0, Units).
	Units int
	// Workers bounds preparation concurrency. Values below 1 mean 1.
	Workers int
	// Block is the round size in units. Values below 1 mean 1. Block is part
	// of the determinism contract: changing it changes the staleness pattern
	// and therefore the (still deterministic) result.
	Block int
	// Seed keys the pass's RNG streams: unit i prepares with
	// rng.Keyed(Seed, i), and the optional shuffle draws from
	// rng.Keyed(Seed, shuffleKey). Give every pass of a run a distinct Seed
	// (see StreamSeed) so no stream is reused across epochs or phases.
	Seed uint64
	// Shuffle visits units in a seeded random order instead of 0..Units-1.
	// Unit streams are keyed by unit id, not position, so the shuffle
	// changes only the commit sequence.
	Shuffle bool
	// NewScratch allocates one unit's scratch. The engine keeps Block
	// scratches and recycles them across rounds, so Prepare must fully
	// overwrite whatever it later expects Commit to read.
	NewScratch func() any
	// Prepare computes unit's contribution against the current (round-start)
	// parameters into scratch. It runs concurrently with other Prepare calls
	// of the same round and MUST NOT write anything but scratch; r is the
	// unit's private stream, freshly seeded.
	Prepare func(unit int, r *rng.RNG, scratch any)
	// Commit applies unit's prepared scratch to the parameters and
	// accumulates its objective into t. Commits run serially in visit order
	// on the calling goroutine.
	Commit func(unit int, scratch any, t *Totals)
	// EndRound, when non-nil, runs serially after each round's commits.
	// Objectives whose commits only stage round-level state — e.g.
	// conflict-averaged deltas over rows several units touched — apply it to
	// the parameters here, before the next round's prepares snapshot them.
	EndRound func(t *Totals)
}

// shuffleKey is the stream key reserved for the visit-order shuffle; unit
// keys are unit indices, so the top bit keeps them disjoint.
const shuffleKey = uint64(1) << 63

// Run executes the pass, stopping early (with partial totals) at the next
// round boundary after done closes. Every completed round is fully
// committed, so the parameters are always in a between-rounds state.
func (p *Pass) Run(done <-chan struct{}) Totals {
	var t Totals
	if p.Units <= 0 {
		return t
	}
	workers := Workers(p.Workers)
	block := p.Block
	if block < 1 {
		block = 1
	}
	if block > p.Units {
		block = p.Units
	}
	if workers > block {
		workers = block
	}

	var order []int
	if p.Shuffle {
		order = rng.Keyed(p.Seed, shuffleKey).Perm(p.Units)
	}
	scratch := make([]any, block)
	for i := range scratch {
		scratch[i] = p.NewScratch()
	}

	for lo := 0; lo < p.Units; lo += block {
		if canceled(done) {
			return t
		}
		n := block
		if lo+n > p.Units {
			n = p.Units - lo
		}
		unitAt := func(slot int) int {
			if order != nil {
				return order[lo+slot]
			}
			return lo + slot
		}
		if workers <= 1 || n == 1 {
			r := &rng.RNG{}
			for slot := 0; slot < n; slot++ {
				unit := unitAt(slot)
				r.ReseedKeyed(p.Seed, uint64(unit))
				p.Prepare(unit, r, scratch[slot])
			}
		} else {
			// Work-stealing over the round's slots: scheduling order is
			// arbitrary, but each slot's writes land in its own scratch and
			// each unit's randomness comes from its own keyed stream, so the
			// committed result does not depend on who prepared what. The
			// WaitGroup barrier orders every Prepare before the commits.
			var next int64
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					r := &rng.RNG{}
					for {
						slot := int(atomic.AddInt64(&next, 1)) - 1
						if slot >= n {
							return
						}
						unit := unitAt(slot)
						r.ReseedKeyed(p.Seed, uint64(unit))
						p.Prepare(unit, r, scratch[slot])
					}
				}()
			}
			wg.Wait()
		}
		for slot := 0; slot < n; slot++ {
			p.Commit(unitAt(slot), scratch[slot], &t)
		}
		if p.EndRound != nil {
			p.EndRound(&t)
		}
	}
	return t
}
