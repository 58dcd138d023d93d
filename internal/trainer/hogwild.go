package trainer

import (
	"sync"

	"inf2vec/internal/rng"
)

// PassFunc processes one example — an index into the pass's work list —
// accumulating its objective contribution and example count into t. Adding
// into t per example (rather than returning partial sums) keeps the float
// accumulation sequence identical to a hand-written serial loop, which is
// what lets the extracted engine stay bitwise-equal to the code it replaced.
type PassFunc func(example int, t *Totals)

// HogwildObjective binds one worker's generator to a PassFunc. It is called
// once per shard per pass, so it is the place to allocate per-worker scratch
// (gradient buffers etc.) that the returned closure reuses across examples.
type HogwildObjective func(r *rng.RNG) PassFunc

// HogwildPass is one word2vec-style lock-free pass: Order is sharded
// contiguously across the RNGs' workers, and each shard applies Objective to
// its examples with no coordination. The caller owns the RNG streams — they
// are typically long-lived and checkpointed — and the engine never consumes
// state from streams whose shard is empty or clamped away, preserving
// resume-compatibility when the worker count exceeds the work.
type HogwildPass struct {
	// Order lists the examples of this pass, already shuffled if the
	// objective wants visitation order randomized.
	Order []int
	// RNGs supplies one generator per configured worker; len(RNGs) is the
	// worker count. Size it with HogwildWorkers so the race-detector clamp
	// is consistent with any per-worker state the caller checkpoints.
	RNGs []*rng.RNG
	// Sequential runs the shards one after another on the calling goroutine
	// instead of concurrently. Shard boundaries and per-shard streams are
	// unchanged, so a sequential pass is the bitwise-deterministic reference
	// for what a concurrent pass races toward; tests use it to pin the
	// sharding structure at worker counts the detector would otherwise clamp.
	Sequential bool
	// Objective builds the per-worker example step.
	Objective HogwildObjective
}

// Run executes the pass, stopping early (with partial totals) when done is
// closed. Shards are clamped to the work available — at most one worker per
// example — and per-shard totals are folded in worker order, so the totals
// of a Sequential pass are reproducible at any worker count.
func (p *HogwildPass) Run(done <-chan struct{}) Totals {
	workers := len(p.RNGs)
	if workers > len(p.Order) {
		workers = len(p.Order)
	}
	if workers <= 1 {
		var t Totals
		p.shard(done, p.Order, p.RNGs[0], &t)
		return t
	}
	shardTotals := make([]Totals, workers)
	chunk := (len(p.Order) + workers - 1) / workers
	if p.Sequential {
		for w := 0; w < workers; w++ {
			lo, hi := shardBounds(w, chunk, len(p.Order))
			if lo >= hi {
				continue
			}
			p.shard(done, p.Order[lo:hi], p.RNGs[w], &shardTotals[w])
		}
	} else {
		// Hogwild: shards update shared parameters without locks. Lost
		// updates on colliding rows are rare and benign for SGD; results are
		// statistically (not bitwise) reproducible.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := shardBounds(w, chunk, len(p.Order))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				p.shard(done, p.Order[lo:hi], p.RNGs[w], &shardTotals[w])
			}(w, lo, hi)
		}
		wg.Wait()
	}
	var t Totals
	for w := 0; w < workers; w++ {
		t.Loss += shardTotals[w].Loss
		t.Examples += shardTotals[w].Examples
		t.Skips += shardTotals[w].Skips
	}
	return t
}

// shardBounds returns worker w's half-open slice of the order.
func shardBounds(w, chunk, n int) (lo, hi int) {
	lo = w * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// shard runs one worker's slice of the pass, polling done every
// cancelCheckInterval examples, and stores the shard's totals in t.
//
// Every example writes the totals and every draw writes the stream state.
// The callers' streams and totals are small neighbouring objects (one RNG
// per worker allocated in a row, one Totals slice), so updating them in
// place would bounce shared cache lines between the workers' cores. The
// shard therefore works on its own copy of both and writes them back when
// it returns, early on cancellation included; at one worker, and in
// Sequential mode, the results are bitwise those of updating in place.
func (p *HogwildPass) shard(done <-chan struct{}, order []int, r *rng.RNG, t *Totals) {
	local := *r
	var tot Totals
	defer func() { *r, *t = local, tot }()
	pass := p.Objective(&local)
	for idx, ex := range order {
		if done != nil && idx%cancelCheckInterval == 0 {
			select {
			case <-done:
				return
			default:
			}
		}
		pass(ex, &tot)
	}
}
