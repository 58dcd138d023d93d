// Package trainer is the shared training engine behind every learned
// baseline, and the event type Inf2vec's own training loop reports
// through. It splits a training run along three seams:
//
//   - an example source: the per-epoch work list — streamed walks
//     (node2vec), sampled triples (MF BPR), or exposure groups (Emb-IC,
//     EM);
//   - an objective step: the per-example parameter update, supplied as a
//     callback so each model keeps its own gradient math; and
//   - the engine: worker scheduling, RNG stream discipline, cooperative
//     cancellation, per-epoch loss/throughput telemetry, and NaN/Inf
//     divergence detection — written once, inherited by every objective.
//
// The one execution model is Pass: deterministic synchronous-parallel
// rounds. The epoch is a fixed sequence of work units; each unit draws
// from its own rng.Keyed stream (the corpus-generation discipline), rounds
// of Block units are prepared concurrently against frozen parameters, and
// the prepared updates are committed serially in unit order. Results are
// bitwise identical at ANY worker count — the unit streams, the round
// boundaries, and the commit order are all independent of scheduling —
// and the phases are race-free.
//
// Inf2vec does not train on Pass: its SGD pass (internal/core) is
// stratified. It splits the users into blocks and runs at once only cells
// of positives whose centers lie in distinct blocks and whose targets do
// too, each cell on its own keyed stream, with no staleness and no serial
// commit; its results are bitwise identical at any worker count too.
package trainer

import "inf2vec/internal/rng"

// Totals accumulates one pass: the summed objective and the number of
// examples it covers. Objectives add into it example by example, which keeps
// float accumulation order — and therefore bitwise reproducibility — defined
// by the engine's visit order rather than by the objective.
type Totals struct {
	Loss     float64
	Examples int64
	// Skips counts degenerate draws the objective abandoned after bounded
	// resampling (e.g. a negative-sampling table that keeps returning the
	// positive itself). A healthy run keeps this near zero; surfacing it in
	// telemetry is what turned the baselines' silent sample-dropping into a
	// measured quantity.
	Skips int64
}

// Workers resolves a pass's worker count: at least one.
func Workers(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// StreamSeed derives a stream base by folding keys into seed through
// rng.Keyed, one level per key. Objectives use it to give every (epoch,
// phase) its own key space for per-unit streams — e.g.
// StreamSeed(base, epoch) for a single-phase pass, or
// StreamSeed(base, epoch, phase) when one epoch runs several passes — so no
// unit stream is ever reused across passes.
func StreamSeed(seed uint64, keys ...uint64) uint64 {
	for _, k := range keys {
		seed = rng.Keyed(seed, k).Uint64()
	}
	return seed
}

// canceled polls done without blocking.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}
