package trainer

import (
	"reflect"
	"sync"
	"testing"

	"inf2vec/internal/rng"
)

// TestHogwildShardingAndTotals pins the shard geometry: ceil-division
// chunks, a clamp to one worker per example, empty shards skipped, and
// totals folded in worker order.
func TestHogwildShardingAndTotals(t *testing.T) {
	const n = 10
	root := rng.New(1)
	rngs := make([]*rng.RNG, 4)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	var mu sync.Mutex
	seen := make(map[int]int) // example -> times processed
	p := HogwildPass{
		Order: rng.New(2).Perm(n),
		RNGs:  rngs,
		Objective: func(r *rng.RNG) PassFunc {
			return func(ex int, tot *Totals) {
				mu.Lock()
				seen[ex]++
				mu.Unlock()
				tot.Loss -= 1
				tot.Examples++
			}
		},
	}
	tot := p.Run(nil)
	if tot.Examples != n || tot.Loss != -n {
		t.Fatalf("totals = %+v, want %d examples, loss %d", tot, n, -n)
	}
	for ex := 0; ex < n; ex++ {
		if seen[ex] != 1 {
			t.Fatalf("example %d processed %d times", ex, seen[ex])
		}
	}
}

// TestHogwildClampLeavesSurplusStreamsUntouched verifies that workers beyond
// the example count neither run nor consume RNG state — the checkpoint
// resume contract for small corpora.
func TestHogwildClampLeavesSurplusStreamsUntouched(t *testing.T) {
	root := rng.New(7)
	rngs := make([]*rng.RNG, 8)
	states := make([][4]uint64, len(rngs))
	for i := range rngs {
		rngs[i] = root.Split()
		states[i] = rngs[i].State()
	}
	p := HogwildPass{
		Order: []int{0, 1},
		RNGs:  rngs,
		Objective: func(r *rng.RNG) PassFunc {
			return func(ex int, tot *Totals) {
				r.Uint64() // consume stream state in live shards only
				tot.Examples++
			}
		},
	}
	if tot := p.Run(nil); tot.Examples != 2 {
		t.Fatalf("examples = %d, want 2", tot.Examples)
	}
	for i := 2; i < len(rngs); i++ {
		if rngs[i].State() != states[i] {
			t.Fatalf("surplus worker %d stream was consumed", i)
		}
	}
}

// TestHogwildSequentialReproducible verifies Sequential mode is bitwise
// self-reproducible at a multi-worker shard geometry: same streams, same
// boundaries, no races.
func TestHogwildSequentialReproducible(t *testing.T) {
	run := func() ([]uint64, Totals) {
		root := rng.New(3)
		rngs := make([]*rng.RNG, 3)
		for i := range rngs {
			rngs[i] = root.Split()
		}
		var draws []uint64
		p := HogwildPass{
			Order:      rng.New(4).Perm(9),
			RNGs:       rngs,
			Sequential: true,
			Objective: func(r *rng.RNG) PassFunc {
				return func(ex int, tot *Totals) {
					draws = append(draws, r.Uint64())
					tot.Loss += float64(ex)
					tot.Examples++
				}
			},
		}
		return draws, p.Run(nil)
	}
	d1, t1 := run()
	d2, t2 := run()
	if !reflect.DeepEqual(d1, d2) || t1 != t2 {
		t.Fatalf("sequential pass not reproducible: %v vs %v, %+v vs %+v", d1, d2, t1, t2)
	}
}

// TestHogwildCancellation verifies a pre-closed done channel stops every
// shard at its first check, before any example is processed.
func TestHogwildCancellation(t *testing.T) {
	done := make(chan struct{})
	close(done)
	p := HogwildPass{
		Order: make([]int, 10_000),
		RNGs:  []*rng.RNG{rng.New(1)},
		Objective: func(r *rng.RNG) PassFunc {
			return func(ex int, tot *Totals) { tot.Examples++ }
		},
	}
	if tot := p.Run(done); tot.Examples != 0 {
		t.Fatalf("processed %d examples after cancellation", tot.Examples)
	}
}

// TestHogwildShardWritesBack pins that a shard, which works on private
// copies of its stream and totals, hands both back to the caller: after a
// full pass, and after a pass canceled mid-shard, the caller's stream has
// advanced by exactly the draws the processed examples made, and the
// totals count exactly those examples.
func TestHogwildShardWritesBack(t *testing.T) {
	for _, cancelAt := range []int{-1, 300} {
		done := make(chan struct{})
		r := rng.New(5)
		p := HogwildPass{
			Order: make([]int, 1000),
			RNGs:  []*rng.RNG{r},
			Objective: func(r *rng.RNG) PassFunc {
				return func(ex int, tot *Totals) {
					if int(tot.Examples) == cancelAt {
						close(done)
					}
					r.Uint64()
					tot.Loss += 0.5
					tot.Examples++
				}
			},
		}
		tot := p.Run(done)
		// Cancellation is observed at the next check interval boundary.
		want := int64(len(p.Order))
		if cancelAt >= 0 {
			want = int64((cancelAt/cancelCheckInterval + 1) * cancelCheckInterval)
		}
		if tot.Examples != want || tot.Loss != 0.5*float64(want) {
			t.Errorf("cancelAt=%d: totals %+v, want %d examples", cancelAt, tot, want)
		}
		ref := rng.New(5)
		for i := int64(0); i < want; i++ {
			ref.Uint64()
		}
		if r.State() != ref.State() {
			t.Errorf("cancelAt=%d: caller's stream not advanced by the shard's %d draws", cancelAt, want)
		}
	}
}

// detTrace runs a small deterministic pass that exercises randomness,
// shuffling, and parameter-coupled commits, returning the committed
// sequence. Any dependence on worker count or scheduling would change it.
func detTrace(t *testing.T, workers int) ([]float64, Totals) {
	t.Helper()
	const units = 57
	params := 1.0
	type scratch struct {
		draw float64
		unit int
	}
	var committed []float64
	p := Pass{
		Units:      units,
		Workers:    workers,
		Block:      8,
		Seed:       99,
		Shuffle:    true,
		NewScratch: func() any { return &scratch{} },
		Prepare: func(unit int, r *rng.RNG, sc any) {
			s := sc.(*scratch)
			s.unit = unit
			s.draw = r.Float64() * params // reads round-start params
		},
		Commit: func(unit int, sc any, tot *Totals) {
			s := sc.(*scratch)
			if s.unit != unit {
				t.Errorf("scratch for unit %d committed as unit %d", s.unit, unit)
			}
			params += s.draw / units // visible to the NEXT round's prepares
			committed = append(committed, s.draw)
			tot.Loss += s.draw
			tot.Examples++
		},
	}
	tot := p.Run(nil)
	return committed, tot
}

// TestPassBitwiseAcrossWorkerCounts is the engine-level determinism
// contract: identical committed sequences and totals at 1, 2, and 8
// workers, including when commits feed back into what later rounds read.
func TestPassBitwiseAcrossWorkerCounts(t *testing.T) {
	ref, refTot := detTrace(t, 1)
	if len(ref) != 57 || refTot.Examples != 57 {
		t.Fatalf("reference pass incomplete: %d commits, %+v", len(ref), refTot)
	}
	for _, workers := range []int{2, 8} {
		got, gotTot := detTrace(t, workers)
		if !reflect.DeepEqual(got, ref) || gotTot != refTot {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}

// TestPassCancellation verifies a deterministic pass stops at a round
// boundary: a done channel closed from inside a commit halts before the
// next round, leaving a fully-committed prefix.
func TestPassCancellation(t *testing.T) {
	done := make(chan struct{})
	var committed int
	p := Pass{
		Units:      100,
		Workers:    4,
		Block:      10,
		Seed:       5,
		NewScratch: func() any { return new(int) },
		Prepare:    func(unit int, r *rng.RNG, sc any) { *sc.(*int) = unit },
		Commit: func(unit int, sc any, tot *Totals) {
			committed++
			if committed == 10 {
				close(done)
			}
			tot.Examples++
		},
	}
	tot := p.Run(done)
	if committed != 10 || tot.Examples != 10 {
		t.Fatalf("committed %d units (totals %+v), want the first round only", committed, tot)
	}
}

// TestPassVisitsEveryUnitOnce covers the unshuffled path and the final
// short round.
func TestPassVisitsEveryUnitOnce(t *testing.T) {
	const units = 23
	seen := make([]int, units)
	var orderSeen []int
	p := Pass{
		Units:      units,
		Workers:    3,
		Block:      5,
		Seed:       1,
		NewScratch: func() any { return new(int) },
		Prepare:    func(unit int, r *rng.RNG, sc any) { *sc.(*int) = unit },
		Commit: func(unit int, sc any, tot *Totals) {
			seen[*sc.(*int)]++
			orderSeen = append(orderSeen, unit)
			tot.Examples++
		},
	}
	p.Run(nil)
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("unit %d prepared %d times", u, n)
		}
	}
	for i, u := range orderSeen {
		if u != i {
			t.Fatalf("unshuffled pass committed unit %d at position %d", u, i)
		}
	}
}

// TestStreamSeedChains verifies StreamSeed is a pure function with distinct
// outputs per key path.
func TestStreamSeedChains(t *testing.T) {
	a := StreamSeed(42, 1, 2)
	if a != StreamSeed(42, 1, 2) {
		t.Fatal("StreamSeed is not a pure function")
	}
	distinct := map[uint64]bool{
		a:                    true,
		StreamSeed(42, 2, 1): true,
		StreamSeed(42, 1):    true,
		StreamSeed(42):       true,
		StreamSeed(43, 1, 2): true,
		StreamSeed(42, 1, 3): true,
	}
	if len(distinct) != 6 {
		t.Fatalf("StreamSeed key paths collide: %d distinct of 6", len(distinct))
	}
}

// TestWorkerClamps pins the two worker-resolution rules.
func TestWorkerClamps(t *testing.T) {
	if got := Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d", got)
	}
	if got := Workers(8); got != 8 {
		t.Fatalf("Workers(8) = %d (deterministic passes must not race-clamp)", got)
	}
	want := 8
	if RaceEnabled() {
		want = 1
	}
	if got := HogwildWorkers(8); got != want {
		t.Fatalf("HogwildWorkers(8) = %d, want %d", got, want)
	}
	if got := HogwildWorkers(0); got != 1 {
		t.Fatalf("HogwildWorkers(0) = %d", got)
	}
}
