package trainer

import (
	"reflect"
	"testing"

	"inf2vec/internal/rng"
)

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

// TestWorkerClamps pins the worker-resolution rule.
func TestWorkerClamps(t *testing.T) {
	if got := Workers(0); got != 1 {
		t.Fatalf("Workers(0) = %d", got)
	}
	if got := Workers(8); got != 8 {
		t.Fatalf("Workers(8) = %d (deterministic passes must not race-clamp)", got)
	}
}
