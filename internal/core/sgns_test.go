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

// lossFunc returns one example's Eq. 4 term for the logit z of its label.
type lossFunc func(z float32) float64

// tableLoss is the term the block step sums; exactLoss is the exact term
// the loss summed before it was tabulated.
var (
	tableLoss lossFunc = func(z float32) float64 { return float64(vecmath.FastLogSigmoid(z)) }
	exactLoss lossFunc = func(z float32) float64 { return vecmath.LogSigmoid(float64(z)) }
)

// passFunc runs one SGD pass over tuples in order; sgdPass is one.
type passFunc func(done <-chan struct{}, store *embed.Store, tuples []Tuple, order []int, neg *rng.UnigramTable, cfg Config, gamma float32, r *rng.RNG) trainer.Totals

// referencePass is the per-example SGD sequence the block step replaced:
// each positive, then each negative as it is drawn, goes through
// applyExample on its own, and S_u takes the accumulated gradient once per
// positive. It is the specification the block step must reproduce bit for
// bit, and the code the golden stores were generated with. Each example's
// loss term comes from loss.
func referencePass(loss lossFunc) passFunc {
	return func(_ <-chan struct{}, store *embed.Store, tuples []Tuple, order []int, neg *rng.UnigramTable, cfg Config, gamma float32, r *rng.RNG) trainer.Totals {
		srcGrad := make([]float32, store.Dim())
		var tot trainer.Totals
		for _, ti := range order {
			t := &tuples[ti]
			u := t.Center
			su := store.SourceVec(u)
			bu := store.BiasSource(u)
			for _, v := range t.Context {
				vecmath.Zero(srcGrad)
				tot.Loss += applyExample(store, su, bu, u, v, 1, gamma, srcGrad, cfg, loss)
				tot.Examples++
				for s := 0; s < cfg.NegativeSamples; s++ {
					w, ok := sampleNegative(neg, r, u, v)
					if !ok {
						tot.Skips++
						continue
					}
					tot.Loss += applyExample(store, su, bu, u, w, 0, gamma, srcGrad, cfg, loss)
				}
				vecmath.Axpy(1, srcGrad, su)
			}
		}
		return tot
	}
}

// applyExample performs one example's update for pair (u,x) with the given
// label: it accumulates the S_u gradient into srcGrad (applied by the caller
// once per positive), updates T_x and the biases in place, and returns the
// example's log-sigmoid objective contribution, computed by loss.
func applyExample(store *embed.Store, su []float32, bu *float32, u, x int32, label float32, gamma float32, srcGrad []float32, cfg Config, loss lossFunc) float64 {
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
		return loss(z)
	}
	return loss(-z)
}

// sgnsRun is the outcome of training passes with one pass function.
type sgnsRun struct {
	store  []byte
	totals []trainer.Totals
	rng    [4]uint64
}

// runSGNS initializes a store from a fixed seed and runs passes of pass
// over tuples on one stream, shuffling each pass.
func runSGNS(t *testing.T, pass passFunc,
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
		tot := pass(nil, store, tuples, order.Perm(len(tuples)), neg, cfg, 0.5/float32(p+1), worker)
		run.totals = append(run.totals, tot)
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
// do and do not fill the kernels' windows (K = 5 runs only the assembly
// kernels' tails, K = 13 a full 8-wide step and a tail of 5), and biases
// on and off. Against
// the reference with the exact loss, the store bytes must still match and
// each pass's mean loss per positive must lie within 1e-3 (see tol for the
// saturating universe): the table moves only the loss estimate, never a
// parameter. Two
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
			for _, dim := range []int{5, 8, 13, 50, 64} {
				for _, biases := range []bool{true, false} {
					name := fmt.Sprintf("%s/neg=%d/K=%d/biases=%t", uv.name, negatives, dim, biases)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Dim: dim, NegativeSamples: negatives, DisableBiases: !biases}
						tuples := randomTuples(rng.New(uint64(negatives*1000+dim)), uv.users, 60, 6)
						if uv.name == "degenerate" {
							tuples = append(tuples, Tuple{Center: 0, Context: []int32{1, 1, 1}})
						}
						want := runSGNS(t, referencePass(tableLoss), uv.users, tuples, uv.counts, uv.power, cfg, 3)
						exact := runSGNS(t, referencePass(exactLoss), uv.users, tuples, uv.counts, uv.power, cfg, 3)
						got := runSGNS(t, sgdPass, uv.users, tuples, uv.counts, uv.power, cfg, 3)
						if !bytes.Equal(got.store, want.store) {
							t.Errorf("store bytes differ from the per-example reference")
						}
						if !bytes.Equal(got.store, exact.store) {
							t.Errorf("store bytes differ from the exact-loss per-example reference")
						}
						// Inside (-6, 6) the table's error is centred, so the
						// mean loss tracks the exact one to 1e-3 per positive.
						// A logit at or past 6 reads the last entry, -2.48e-3,
						// where the exact term is nearly 0. The degenerate
						// universe repeats a few pairs until their logits
						// saturate (pass 0 at |N|=8 differs by -2.35e-3), so
						// there the bound is the per-term 2.5e-3 over a block.
						tol := 1e-3
						if uv.name == "degenerate" {
							tol = 2.5e-3 * float64(1+negatives)
						}
						for p := range want.totals {
							g, w, e := got.totals[p], want.totals[p], exact.totals[p]
							if math.Float64bits(g.Loss) != math.Float64bits(w.Loss) || g.Examples != w.Examples || g.Skips != w.Skips {
								t.Errorf("pass %d totals = %+v, reference %+v", p, g, w)
							}
							gm, em := g.Loss/float64(g.Examples), e.Loss/float64(e.Examples)
							if math.Abs(gm-em) > tol {
								t.Errorf("pass %d mean loss per positive %.6g, exact %.6g (|diff| > %.3g)", p, gm, em, tol)
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

// TestBlockStepNonFiniteLoss pins that a non-finite logit reaches the
// summed loss, which diverged() reads: a NaN in the S_u row or in a target
// bias makes the loss NaN, and a +Inf logit on a negative makes it -Inf.
// The gradient's FastSigmoid maps NaN to a finite value, so the loss is
// the only place a NaN logit shows within the step.
func TestBlockStepNonFiniteLoss(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, tc := range []struct {
		name   string
		poison func(*embed.Store)
		want   func(float64) bool
	}{
		{"NaN in S_u", func(s *embed.Store) { s.SourceVec(0)[3] = nan }, math.IsNaN},
		{"NaN positive bias", func(s *embed.Store) { *s.BiasTarget(1) = nan }, math.IsNaN},
		{"NaN negative bias", func(s *embed.Store) { *s.BiasTarget(2) = nan }, math.IsNaN},
		{"+Inf negative logit", func(s *embed.Store) { *s.BiasTarget(2) = inf }, func(l float64) bool { return math.IsInf(l, -1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := embed.New(4, 8)
			if err != nil {
				t.Fatal(err)
			}
			store.Init(rng.New(3))
			tc.poison(store)
			b := newSGNSBlock(store, 2, 0.025, true)
			b.targets = append(b.targets[:0], 1, 2, 3)
			var loss float64
			b.step(0, &loss)
			if !tc.want(loss) {
				t.Errorf("loss = %v after a step over a poisoned logit", loss)
			}
		})
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
