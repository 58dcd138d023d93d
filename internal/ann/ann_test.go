package ann

import (
	"context"
	"math"
	"reflect"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/eval"
	"inf2vec/internal/rng"
)

// testStore builds an n-user store with Init-style random embeddings.
func testStore(t *testing.T, n int32, dim int, seed uint64) *embed.Store {
	t.Helper()
	st, err := embed.New(n, dim)
	if err != nil {
		t.Fatal(err)
	}
	st.Init(rng.New(seed))
	// Give targets some bias spread so the b̃_v column matters.
	r := rng.New(seed ^ 0xbeef)
	for v := int32(0); v < n; v++ {
		*st.BiasTarget(v) = r.Float32() * 0.1
	}
	return st
}

// clusteredStore plants targets around a few Gaussian-ish centers — the
// shape trained influence embeddings actually take — so IVF recall reflects
// production geometry rather than a uniform cube.
func clusteredStore(t *testing.T, n int32, dim, centers int, seed uint64) *embed.Store {
	t.Helper()
	st, err := embed.New(n, dim)
	if err != nil {
		t.Fatal(err)
	}
	st.Init(rng.New(seed))
	r := rng.New(seed ^ 0xc0ffee)
	centerVecs := make([]float32, centers*dim)
	for i := range centerVecs {
		centerVecs[i] = float32(r.NormFloat64())
	}
	for v := int32(0); v < n; v++ {
		c := r.Intn(centers)
		tv := st.TargetVec(v)
		for j := range tv {
			tv[j] = centerVecs[c*dim+j] + float32(r.NormFloat64())*0.15
		}
		*st.BiasTarget(v) = float32(r.NormFloat64()) * 0.05
	}
	return st
}

// rescorerFor wires the exact rescore path the serving layer uses.
func rescorerFor(t *testing.T, st *embed.Store, seeds []int32, agg eval.Aggregator, topK int) (Rescorer, *eval.Scorer) {
	t.Helper()
	sc, err := eval.NewScorer(st, st.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, cands []int32) ([]eval.Ranked, error) {
		return sc.TopAmong(ctx, seeds, agg, topK, cands)
	}, sc
}

func queryFor(st *embed.Store, u int32) []float32 {
	return Query(st.SourceVec(u), nil)
}

// checkPartition asserts every user of [0, n) appears exactly once across
// member lists and residuals, inside its shard's range.
func checkPartition(t *testing.T, ix *Index) {
	t.Helper()
	seen := make([]bool, ix.NumUsers())
	claim := func(lo, hi, v int32) {
		if v < lo || v >= hi {
			t.Fatalf("user %d filed outside its shard range [%d,%d)", v, lo, hi)
		}
		if seen[v] {
			t.Fatalf("user %d indexed twice", v)
		}
		seen[v] = true
	}
	nextLo := int32(0)
	for si := range ix.shards {
		sh := &ix.shards[si]
		if sh.lo != nextLo {
			t.Fatalf("shard %d starts at %d, want %d", si, sh.lo, nextLo)
		}
		for _, m := range sh.members {
			for _, v := range m {
				claim(sh.lo, sh.hi, v)
			}
		}
		for _, v := range sh.residual {
			claim(sh.lo, sh.hi, v)
		}
		nextLo = sh.hi
	}
	if nextLo != ix.NumUsers() {
		t.Fatalf("shards cover [0,%d), want [0,%d)", nextLo, ix.NumUsers())
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("user %d not indexed", v)
		}
	}
}

func TestBuildPartitionInvariants(t *testing.T) {
	st := testStore(t, 5000, 8, 1)
	ix, err := Build(st, Config{Shards: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumUsers() != 5000 || ix.Dim() != 9 || ix.Shards() != 4 {
		t.Fatalf("index shape n=%d dim=%d shards=%d", ix.NumUsers(), ix.Dim(), ix.Shards())
	}
	checkPartition(t, ix)
}

func TestBuildDeterministic(t *testing.T) {
	st := testStore(t, 4096, 8, 7)
	cfg := Config{Shards: 3, Seed: 99}
	a, err := Build(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds with the same seed differ")
	}
	c, err := Build(st, Config{Shards: 3, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.shards, c.shards) {
		t.Fatal("different seeds produced identical clusterings (suspicious)")
	}
}

func TestBuildTinyUniverseSingleShard(t *testing.T) {
	st := testStore(t, 8, 4, 3)
	ix, err := Build(st, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 1 {
		t.Fatalf("tiny universe got %d shards, want 1", ix.Shards())
	}
	checkPartition(t, ix)
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(emptySource{}, Config{}); err == nil {
		t.Fatal("Build over empty source did not fail")
	}
}

type emptySource struct{}

func (emptySource) NumUsers() int32           { return 0 }
func (emptySource) Dim() int                  { return 4 }
func (emptySource) TargetVec(int32) []float32 { return nil }
func (emptySource) BiasTarget(int32) *float32 { return nil }

// searchTopK runs the full ANN query for source u.
func searchTopK(t *testing.T, ix *Index, st *embed.Store, u int32, agg eval.Aggregator, topK, nprobe int) ([]eval.Ranked, Stats) {
	t.Helper()
	rescore, _ := rescorerFor(t, st, []int32{u}, agg, topK)
	got, stats, err := ix.Search(context.Background(), queryFor(st, u), nprobe, topK, rescore)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func exactTopK(t *testing.T, st *embed.Store, u int32, agg eval.Aggregator, topK int) []eval.Ranked {
	t.Helper()
	sc, err := eval.NewScorer(st, st.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.TopInfluenced(context.Background(), []int32{u}, agg, topK)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func recallAgainst(exact, approx []eval.Ranked) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int32]bool, len(approx))
	for _, r := range approx {
		in[r.User] = true
	}
	hit := 0
	for _, r := range exact {
		if in[r.User] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// TestSearchRecallAtDefaultNProbe is the headline property test: on seeded
// random models with realistic clustered geometry, mean recall@10 at the
// default nprobe must hold at or above 0.95.
func TestSearchRecallAtDefaultNProbe(t *testing.T) {
	const topK = 10
	var total float64
	var queries int
	for _, seed := range []uint64{1, 2, 3} {
		st := clusteredStore(t, 20_000, 16, 64, seed)
		ix, err := Build(st, Config{Shards: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, ix)
		for u := int32(0); u < 20; u++ {
			got, stats := searchTopK(t, ix, st, u*37, eval.Ave, topK, 0)
			if stats.Candidates >= int(st.NumUsers()) {
				t.Fatalf("ANN scanned the whole universe (%d candidates) — no pruning", stats.Candidates)
			}
			total += recallAgainst(exactTopK(t, st, u*37, eval.Ave, topK), got)
			queries++
		}
	}
	if mean := total / float64(queries); mean < 0.95 {
		t.Fatalf("mean recall@%d = %.3f over %d queries, want >= 0.95", topK, mean, queries)
	}
}

// TestSearchExactOnFullProbe: probing every cluster must reproduce the exact
// ranking bit for bit — the rescore path guarantees scores; full coverage
// guarantees the candidate set.
func TestSearchExactOnFullProbe(t *testing.T) {
	st := testStore(t, 6000, 8, 11)
	ix, err := Build(st, Config{Shards: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int32{0, 17, 5999} {
		got, _ := searchTopK(t, ix, st, u, eval.Ave, 25, 1<<30)
		want := exactTopK(t, st, u, eval.Ave, 25)
		assertSameRanking(t, got, want)
	}
}

// TestSearchNaNModelMatchesExact: a fully diverged model has every row in
// the residual lists, which every query scans — so ANN answers must be
// byte-identical to exact mode even though nothing could be clustered.
func TestSearchNaNModelMatchesExact(t *testing.T) {
	st := testStore(t, 3000, 4, 5)
	nan := float32(math.NaN())
	for v := int32(0); v < st.NumUsers(); v++ {
		tv := st.TargetVec(v)
		for j := range tv {
			tv[j] = nan
		}
		*st.BiasTarget(v) = nan
	}
	ix, err := Build(st, Config{Shards: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, ix)
	if ix.Clusters() != 0 {
		t.Fatalf("NaN model produced %d clusters, want all-residual", ix.Clusters())
	}
	got, stats := searchTopK(t, ix, st, 1, eval.Ave, 10, 0)
	if stats.Candidates != int(st.NumUsers()) {
		t.Fatalf("NaN model scanned %d of %d rows", stats.Candidates, st.NumUsers())
	}
	assertSameRanking(t, got, exactTopK(t, st, 1, eval.Ave, 10))
}

// TestSearchTieHeavyMatchesExact: an all-zero model collapses every point
// onto one centroid; cluster selection and the rankBefore ID tie-break must
// keep ANN byte-identical to exact.
func TestSearchTieHeavyMatchesExact(t *testing.T) {
	st, err := embed.New(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(st, Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := searchTopK(t, ix, st, 0, eval.Ave, 50, 0)
	assertSameRanking(t, got, exactTopK(t, st, 0, eval.Ave, 50))
}

func assertSameRanking(t *testing.T, got, want []eval.Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ranking length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].User != want[i].User ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("rank %d: got {%d %v}, want {%d %v}", i, got[i].User, got[i].Score, want[i].User, want[i].Score)
		}
	}
}

func TestSearchValidatesInput(t *testing.T) {
	st := testStore(t, 1000, 4, 2)
	ix, err := Build(st, Config{Shards: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rescore, _ := rescorerFor(t, st, []int32{0}, eval.Ave, 5)
	if _, _, err := ix.Search(context.Background(), make([]float32, 3), 0, 5, rescore); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	if _, _, err := ix.Search(context.Background(), make([]float32, ix.Dim()), 0, 0, rescore); err == nil {
		t.Fatal("topK=0 not rejected")
	}
}

func TestSearchPropagatesRescoreError(t *testing.T) {
	st := testStore(t, 1000, 4, 2)
	ix, err := Build(st, Config{Shards: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rescore, _ := rescorerFor(t, st, []int32{0}, eval.Ave, 5)
	if _, _, err := ix.Search(ctx, queryFor(st, 0), 0, 5, rescore); err == nil {
		t.Fatal("cancelled context did not surface")
	}
}

func TestQueryHelper(t *testing.T) {
	src := []float32{1, 2, 3}
	q := Query(src, nil)
	if len(q) != 4 || q[0] != 1 || q[2] != 3 || q[3] != 1 {
		t.Fatalf("Query = %v", q)
	}
	buf := make([]float32, 4)
	if &Query(src, buf)[0] != &buf[0] {
		t.Fatal("Query did not reuse the caller's buffer")
	}
}
