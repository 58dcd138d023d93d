package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/vecmath"
)

// referenceObjective is the per-example SGD sequence the block step
// replaced: each positive, then each negative as it is drawn, goes through
// applyExample on its own, and S_u takes the accumulated gradient once per
// positive. It is the specification the block step must reproduce bit for
// bit, and the code the golden fixtures were generated with.
func referenceObjective(store *embed.Store, tuples []Tuple, neg *rng.UnigramTable, cfg Config, gamma float32) trainer.HogwildObjective {
	return func(r *rng.RNG) trainer.PassFunc {
		srcGrad := make([]float32, store.Dim())
		return func(ti int, tot *trainer.Totals) {
			t := &tuples[ti]
			u := t.Center
			su := store.SourceVec(u)
			bu := store.BiasSource(u)
			for _, v := range t.Context {
				vecmath.Zero(srcGrad)
				tot.Loss += applyExample(store, su, bu, u, v, 1, gamma, srcGrad, cfg)
				tot.Examples++
				for s := 0; s < cfg.NegativeSamples; s++ {
					w, ok := sampleNegative(neg, r, u, v)
					if !ok {
						tot.Skips++
						continue
					}
					tot.Loss += applyExample(store, su, bu, u, w, 0, gamma, srcGrad, cfg)
				}
				vecmath.Axpy(1, srcGrad, su)
			}
		}
	}
}

// applyExample performs one example's update for pair (u,x) with the given
// label: it accumulates the S_u gradient into srcGrad (applied by the caller
// once per positive), updates T_x and the biases in place, and returns the
// example's log-sigmoid objective contribution.
func applyExample(store *embed.Store, su []float32, bu *float32, u, x int32, label float32, gamma float32, srcGrad []float32, cfg Config) float64 {
	tx := store.TargetVec(x)
	var z, sig float32
	if cfg.DisableBiases {
		z, sig = vecmath.DotSigmoid(su, tx)
	} else {
		z, sig = vecmath.DotBiasSigmoid(su, tx, *bu+*store.BiasTarget(x))
	}
	g := (label - sig) * gamma

	vecmath.AxpyTwo(g, tx, srcGrad, su, tx) // ∂/∂S_u accumulates (label-σ)·T_x; ∂/∂T_x = (label-σ)·S_u
	if !cfg.DisableBiases {
		*bu += g
		*store.BiasTarget(x) += g
	}
	if label == 1 {
		return vecmath.LogSigmoid(float64(z))
	}
	return vecmath.LogSigmoid(-float64(z))
}

// sgnsRun is the outcome of training passes with one objective.
type sgnsRun struct {
	store  []byte
	totals []trainer.Totals
	rng    [4]uint64
}

// runSGNS initializes a store from a fixed seed and runs passes of the
// objective built by build over tuples at one worker, shuffling each pass.
func runSGNS(t *testing.T, build func(*embed.Store, []Tuple, *rng.UnigramTable, Config, float32) trainer.HogwildObjective,
	users int32, tuples []Tuple, counts []int64, power float64, cfg Config, passes int) sgnsRun {
	t.Helper()
	store, err := embed.New(users, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(3))
	neg, err := rng.NewUnigramTable(counts, power)
	if err != nil {
		t.Fatal(err)
	}
	worker, order := rng.New(4), rng.New(5)
	var run sgnsRun
	for p := 0; p < passes; p++ {
		pass := trainer.HogwildPass{
			Order:     order.Perm(len(tuples)),
			RNGs:      []*rng.RNG{worker},
			Objective: build(store, tuples, neg, cfg, 0.5/float32(p+1)),
		}
		run.totals = append(run.totals, pass.Run(nil))
	}
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	run.store = buf.Bytes()
	run.rng = worker.State()
	return run
}

// randomTuples returns n tuples over users, each with a context of length
// contextLen drawn uniformly (repeats and the center itself included).
func randomTuples(r *rng.RNG, users int32, n, contextLen int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		ctx := make([]int32, contextLen)
		for j := range ctx {
			ctx[j] = int32(r.Intn(int(users)))
		}
		tuples[i] = Tuple{Center: int32(r.Intn(int(users))), Context: ctx}
	}
	return tuples
}

// TestBlockStepMatchesPerExample pins the block step to the per-example
// reference bit for bit — store bytes, every pass's loss, example and skip
// counts, and the worker stream — across negative counts, dimensions that
// do and do not fill the kernels' windows, and biases on and off. Two
// universes stress the step's special cases: four users leave two candidate
// negatives per positive, so most blocks repeat a target and split; and a
// unigram table concentrated on users 0 and 1 makes most draws for the
// pair (0,1) collide, so blocks lose negatives to skips.
func TestBlockStepMatchesPerExample(t *testing.T) {
	type universe struct {
		name   string
		users  int32
		counts []int64
		power  float64
	}
	universes := []universe{
		{name: "uniform", users: 40, counts: make([]int64, 40)},
		{name: "tiny", users: 4, counts: make([]int64, 4)},
		{name: "degenerate", users: 6, counts: []int64{1000, 1000, 5, 5, 5, 5}, power: 1},
	}
	for _, uv := range universes {
		for _, negatives := range []int{1, 2, 5, 8} {
			for _, dim := range []int{8, 50, 64} {
				for _, biases := range []bool{true, false} {
					name := fmt.Sprintf("%s/neg=%d/K=%d/biases=%t", uv.name, negatives, dim, biases)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Dim: dim, NegativeSamples: negatives, DisableBiases: !biases}
						tuples := randomTuples(rng.New(uint64(negatives*1000+dim)), uv.users, 60, 6)
						if uv.name == "degenerate" {
							tuples = append(tuples, Tuple{Center: 0, Context: []int32{1, 1, 1}})
						}
						want := runSGNS(t, referenceObjective, uv.users, tuples, uv.counts, uv.power, cfg, 3)
						got := runSGNS(t, sgnsObjective, uv.users, tuples, uv.counts, uv.power, cfg, 3)
						if !bytes.Equal(got.store, want.store) {
							t.Errorf("store bytes differ from the per-example reference")
						}
						for p := range want.totals {
							g, w := got.totals[p], want.totals[p]
							if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) || g.Examples != w.Examples || g.Skips != w.Skips {
								t.Errorf("pass %d totals = %+v, reference %+v", p, g, w)
							}
						}
						if got.rng != want.rng {
							t.Errorf("worker stream state differs from the reference")
						}
						if uv.name == "degenerate" && want.totals[0].Skips == 0 {
							t.Errorf("degenerate table drew no skips; the case is not exercised")
						}
					})
				}
			}
		}
	}
}

// TestSubBlockEnd pins where the block step splits: at the first target
// that repeats one already in the current sub-block, and nowhere else.
func TestSubBlockEnd(t *testing.T) {
	for _, tc := range []struct {
		targets []int32
		lo      int
		want    int
	}{
		{[]int32{7}, 0, 1},
		{[]int32{7, 3, 4, 5}, 0, 4},
		{[]int32{7, 3, 4, 3, 5}, 0, 3},
		{[]int32{7, 3, 4, 3, 5}, 3, 5},
		{[]int32{7, 3, 3, 3}, 1, 2},
		{[]int32{7, 3, 4, 4, 3}, 3, 5},
	} {
		if got := subBlockEnd(tc.targets, tc.lo); got != tc.want {
			t.Errorf("subBlockEnd(%v, %d) = %d, want %d", tc.targets, tc.lo, got, tc.want)
		}
	}
}
