package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
type passFunc func(done <-chan struct{}, p *blockParams, tuples []Tuple, order []int, st *strata, cfg Config, gamma float32, r *rng.RNG) trainer.Totals

// referencePass is the per-example SGD sequence the block step replaced,
// in the stratified pass's order: sub-epoch by sub-epoch, cell (i, (i+s)
// mod B) by cell, each cell's positives in tuple and context order with
// negatives from the target block's table, drawn from the cell's keyed
// stream. Each positive, then each negative as it is drawn, goes through
// applyExample on its own, and S_u takes the accumulated gradient once per
// positive; each cell sums its own totals, and the cells' totals add up in
// cell order. It runs the cells one at a time on user ids throughout: on
// the parameters in user order (p drained into a store, and filled back
// after the pass), on the contexts of orig, which newStrata never rewrites,
// in place of the tuples it is passed, and on neg, tables that draw user
// ids (userTables). It is the specification the block step must reproduce
// bit for bit, at any worker count. Each example's loss term comes from
// loss.
func referencePass(loss lossFunc, orig []Tuple, neg [sgdBlocks]*rng.Alias) passFunc {
	return func(_ <-chan struct{}, p *blockParams, _ []Tuple, order []int, _ *strata, cfg Config, gamma float32, r *rng.RNG) trainer.Totals {
		store := p.store()
		defer p.fill(store)
		tuples := orig
		base := r.Uint64()
		srcGrad := make([]float32, store.Dim())
		var cells [sgdBlocks * sgdBlocks]trainer.Totals
		for s := 0; s < sgdBlocks; s++ {
			for i := 0; i < sgdBlocks; i++ {
				j := (i + s) % sgdBlocks
				c := i*sgdBlocks + j
				cr := rng.Keyed(base, uint64(c))
				tot := &cells[c]
				for _, ti := range order {
					t := &tuples[ti]
					u := t.Center
					if userBlock(u) != i {
						continue
					}
					su := store.SourceVec(u)
					bu := store.BiasSource(u)
					for _, v := range t.Context {
						if userBlock(v) != j {
							continue
						}
						vecmath.Zero(srcGrad)
						tot.Loss += applyExample(store, su, bu, u, v, 1, gamma, srcGrad, cfg, loss)
						tot.Examples++
						for n := 0; n < cfg.NegativeSamples; n++ {
							w, ok := sampleNegative(neg[j], cr, u, v)
							if !ok {
								tot.Skips++
								continue
							}
							tot.Loss += applyExample(store, su, bu, u, w, 0, gamma, srcGrad, cfg, loss)
						}
						vecmath.Axpy(1, srcGrad, su)
					}
				}
			}
		}
		var tot trainer.Totals
		for _, c := range cells {
			tot.Loss += c.Loss
			tot.Examples += c.Examples
			tot.Skips += c.Skips
		}
		return tot
	}
}

// userTables builds each block's negative table over user ids, as
// newStrata builds its tables over rows: the unigram weights and floor of
// every user, restricted to the block, in id order; nil for an empty block.
func userTables(t *testing.T, counts []int64, power float64) [sgdBlocks]*rng.Alias {
	t.Helper()
	w, err := rng.UnigramWeights(counts, power)
	if err != nil {
		t.Fatal(err)
	}
	var users [sgdBlocks][]int32
	var weights [sgdBlocks][]float64
	for u, x := range w {
		j := userBlock(int32(u))
		users[j] = append(users[j], int32(u))
		weights[j] = append(weights[j], x)
	}
	var neg [sgdBlocks]*rng.Alias
	for j := range neg {
		if len(users[j]) > 0 {
			if neg[j], err = rng.NewAliasOver(weights[j], users[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return neg
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
// over tuples on one stream, shuffling each pass, on a working copy of the
// store. It gives the contexts their user ids back before it returns.
func runSGNS(t *testing.T, pass passFunc,
	users int32, tuples []Tuple, counts []int64, power float64, cfg Config, passes int) sgnsRun {
	t.Helper()
	store, err := embed.New(users, cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(3))
	st, err := newStrata(&Corpus{Tuples: tuples, ContextFreq: counts}, power)
	if err != nil {
		t.Fatal(err)
	}
	defer st.restore(tuples)
	p := newBlockParams(st, cfg.Dim)
	p.fill(store)
	worker, order := rng.New(4), rng.New(5)
	var run sgnsRun
	for i := 0; i < passes; i++ {
		tot := pass(nil, p, tuples, order.Perm(len(tuples)), st, cfg, 0.5/float32(i+1), worker)
		run.totals = append(run.totals, tot)
	}
	var buf bytes.Buffer
	if err := p.store().Save(&buf); err != nil {
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

// TestBlockStepMatchesPerExample pins the stratified pass, at one worker
// and at two, to the per-example reference bit for bit — store bytes,
// every pass's loss, example and skip counts, and the run's stream —
// across negative counts, dimensions that do and do not fill the kernels'
// windows (K = 5 runs only the assembly kernels' tails, K = 13 a full
// 8-wide step and a tail of 5), and biases on and off. Against
// the reference with the exact loss, the store bytes must still match and
// each pass's mean loss per positive must lie within 1e-3 (see tol for the
// saturating universe): the table moves only the loss estimate, never a
// parameter. Two
// universes stress the step's special cases: four users leave two candidate
// negatives per positive, so most blocks repeat a target and split; and a
// unigram table concentrated on users 0 and 1 makes most draws for the
// pair (0,1) collide, so blocks lose negatives to skips. Both put every
// user in one block chunk, so the other block is empty; the 40 users of
// the uniform universe span two chunks and both blocks.
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
						orig := make([]Tuple, len(tuples))
						for k, tp := range tuples {
							orig[k] = Tuple{Center: tp.Center, Context: slices.Clone(tp.Context)}
						}
						neg := userTables(t, uv.counts, uv.power)
						want := runSGNS(t, referencePass(tableLoss, orig, neg), uv.users, tuples, uv.counts, uv.power, cfg, 3)
						exact := runSGNS(t, referencePass(exactLoss, orig, neg), uv.users, tuples, uv.counts, uv.power, cfg, 3)
						got := runSGNS(t, sgdPass, uv.users, tuples, uv.counts, uv.power, cfg, 3)
						cfg2 := cfg
						cfg2.Workers = 2
						got2 := runSGNS(t, sgdPass, uv.users, tuples, uv.counts, uv.power, cfg2, 3)
						if !bytes.Equal(got.store, want.store) {
							t.Errorf("store bytes differ from the per-example reference")
						}
						if !bytes.Equal(got2.store, got.store) || !slices.Equal(got2.totals, got.totals) || got2.rng != got.rng {
							t.Errorf("two workers differ from one")
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
							t.Errorf("run stream state differs from the reference")
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
			st, err := newStrata(&Corpus{ContextFreq: make([]int64, 4)}, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := newBlockParams(st, 8)
			p.fill(store)
			b := newSGNSBlock(8, 2, 0.025, true)
			j := userBlock(0) // the four users share one chunk
			b.cell(p, j, j)
			b.targets = append(b.targets[:0], st.rows[1], st.rows[2], st.rows[3])
			var loss float64
			b.step(st.rows[0], &loss)
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

// TestSubEpochCellsOwnDisjointPages runs every cell of every sub-epoch
// alone on one working copy, refilled from one store before each cell, and
// checks what each changed. A cell changes S rows and b of its center
// block only, and T rows and b̃ of its target block only. The cells of one
// sub-epoch change parameters on disjoint 4 KB pages, for K = 8, 16 and
// 50: each block's S, T, b and b̃ start a page of their own, so the
// goroutines that run a sub-epoch's cells write no page in common, let
// alone a cache line or a line pair.
func TestSubEpochCellsOwnDisjointPages(t *testing.T) {
	const users = 200
	tuples := randomTuples(rng.New(8), users, 300, 8)
	st, err := newStrata(&Corpus{Tuples: tuples, ContextFreq: make([]int64, users)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.restore(tuples)
	order := rng.New(9).Perm(len(tuples))
	for _, dim := range []int{8, 16, 50} {
		store, err := embed.New(users, dim)
		if err != nil {
			t.Fatal(err)
		}
		store.Init(rng.New(10))
		p := newBlockParams(st, dim)
		for s := 0; s < sgdBlocks; s++ {
			owner := map[uintptr]int{} // 4 KB page -> the cell that changed a parameter on it
			for i := 0; i < sgdBlocks; i++ {
				j := (i + s) % sgdBlocks
				c := i*sgdBlocks + j
				p.fill(store)
				w := &cellWorker{b: newSGNSBlock(dim, 5, 0.5, true)}
				w.r.ReseedKeyed(77, uint64(c))
				if tot := w.run(nil, tuples, order, st, p, i, j); tot.Examples == 0 {
					t.Fatalf("K=%d: cell (%d, %d) trained no positive", dim, i, j)
				}
				for _, ch := range changedParams(store, p) {
					if want := [4]int{i, j, i, j}[ch.array]; ch.block != want {
						t.Errorf("K=%d: cell (%d, %d) changed array %d of user %d in block %d", dim, i, j, ch.array, ch.user, ch.block)
					}
					page := ch.addr / 4096
					if o, ok := owner[page]; ok && o != c {
						t.Errorf("K=%d, sub-epoch %d: cells %d and %d both change page %#x (array %d of user %d)", dim, s, o, c, page, ch.array, ch.user)
					}
					owner[page] = c
				}
			}
		}
	}
}

// paramChange is one float32 of a working copy that differs from the
// user-order store the copy was filled from: array 0 is S, 1 is T, 2 is b
// and 3 is b̃; block and user say whose it is, and addr where it lies.
type paramChange struct {
	array, block int
	user         int32
	addr         uintptr
}

func changedParams(from *embed.Store, p *blockParams) []paramChange {
	var out []paramChange
	k := p.k
	for j, users := range p.st.users {
		for r, u := range users {
			for a, pair := range [4]struct{ got, want []float32 }{
				{p.s[j][r*k : (r+1)*k], from.SourceVec(u)},
				{p.t[j][r*k : (r+1)*k], from.TargetVec(u)},
				{p.bs[j][r : r+1], []float32{*from.BiasSource(u)}},
				{p.bt[j][r : r+1], []float32{*from.BiasTarget(u)}},
			} {
				for x := range pair.got {
					if pair.got[x] != pair.want[x] {
						out = append(out, paramChange{a, j, u, addr(pair.got[x:])})
					}
				}
			}
		}
	}
	return out
}

// TestEmptyBlockTrains trains on users who all share one block chunk,
// so one block has no users and no negative table: the pass must train
// every positive at one worker and at two, not panic on the empty block.
func TestEmptyBlockTrains(t *testing.T) {
	const users = 10
	tuples := randomTuples(rng.New(1), users, 40, 5)
	st, err := newStrata(&Corpus{Tuples: tuples, ContextFreq: make([]int64, users)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := (userBlock(0) + 1) % sgdBlocks
	if st.neg[empty] != nil {
		t.Fatalf("block %d holds no user but has a table", empty)
	}
	defer st.restore(tuples)
	for _, workers := range []int{1, 2} {
		store, err := embed.New(users, 8)
		if err != nil {
			t.Fatal(err)
		}
		store.Init(rng.New(2))
		p := newBlockParams(st, 8)
		p.fill(store)
		cfg := Config{Dim: 8, NegativeSamples: 3, Workers: workers}
		tot := sgdPass(nil, p, tuples, rng.New(3).Perm(len(tuples)), st, cfg, 0.1, rng.New(4))
		if tot.Examples != 40*5 {
			t.Errorf("workers=%d: trained %d positives, want %d", workers, tot.Examples, 40*5)
		}
	}
}
