package infmax

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"inf2vec/internal/datagen"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
)

// goldenCELFRecord is one pinned Greedy run: the selection, every spread's
// bits, the evaluation count and the stop classification.
type goldenCELFRecord struct {
	Seeds       []int32  `json:"seeds"`
	SpreadBits  []string `json:"spread_bits"`
	Evaluations int      `json:"evaluations"`
	Partial     bool     `json:"partial"`
	Stopped     string   `json:"stopped"`
}

// goldenProbers returns the digg-like graph and the two oracles the fixture
// pins: a ModelProber over a seeded random K=50 store behind the serving
// layer's logistic link (offset −2), and the planted ground truth.
func goldenProbers(t *testing.T) (*graph.Graph, map[string]ic.EdgeProber) {
	t.Helper()
	ds, err := datagen.Generate(datagen.DiggLike(1))
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	store, err := embed.New(g.NumNodes(), 50)
	if err != nil {
		t.Fatal(err)
	}
	// Wider than Init's U[-1/K, 1/K], with negative biases, so edge
	// probabilities spread over ~0.005–0.15 instead of all sitting at σ(−2).
	r := rng.New(2)
	for u := int32(0); u < g.NumNodes(); u++ {
		for _, row := range [][]float32{store.SourceVec(u), store.TargetVec(u)} {
			for i := range row {
				row[i] = (2*r.Float32() - 1) * 0.25
			}
		}
		*store.BiasSource(u) = -2 * r.Float32()
		*store.BiasTarget(u) = -r.Float32()
	}
	return g, map[string]ic.EdgeProber{
		"model": &ModelProber{G: g, Score: store.Score, Offset: -2},
		"truth": ds.TrueProbs,
	}
}

// goldenPool shortlists the n highest out-degree nodes (ties: lowest ID).
func goldenPool(g *graph.Graph, n int) []int32 {
	ids := make([]int32, g.NumNodes())
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(i, j int) bool { return g.OutDegree(ids[i]) > g.OutDegree(ids[j]) })
	return ids[:n]
}

// goldenCELFRuns runs every pinned shape: an uninterrupted selection, one
// stopped by its evaluation budget and one canceled at evaluation N.
func goldenCELFRuns(t *testing.T) map[string]goldenCELFRecord {
	t.Helper()
	g, probers := goldenProbers(t)
	base := Config{Seeds: 5, MonteCarloRuns: 40, Seed: 7, Candidates: goldenPool(g, 40)}
	out := make(map[string]goldenCELFRecord)
	for name, p := range probers {
		budgeted := base
		budgeted.MaxEvaluations = 44
		for shape, cfg := range map[string]Config{"full": base, "budget": budgeted} {
			res, err := Greedy(context.Background(), g, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[name+"/"+shape] = recordOf(res)
		}
		ctx, cancel := context.WithCancel(context.Background())
		canceled := base
		canceled.Hooks.BeforeEval = func(eval int, _ []int32) error {
			if eval == 43 {
				cancel()
			}
			return nil
		}
		res, err := Greedy(ctx, g, p, canceled)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		out[name+"/cancel"] = recordOf(res)
	}
	return out
}

func recordOf(res *Result) goldenCELFRecord {
	rec := goldenCELFRecord{Seeds: res.Seeds, Evaluations: res.Evaluations, Partial: res.Partial, Stopped: res.Stopped}
	for _, s := range res.Spread {
		rec.SpreadBits = append(rec.SpreadBits, fmt.Sprintf("%016x", math.Float64bits(s)))
	}
	return rec
}

// TestGoldenCELF pins Greedy's answers on the digg-like preset bit for bit.
// The fixture was generated while every IC trial still asked the prober,
// before the oracle was tabulated. Regenerate it (only for an intentional
// change to the answers) with:
//
//	INF2VEC_WRITE_GOLDEN=1 go test ./internal/infmax -run TestGoldenCELF
func TestGoldenCELF(t *testing.T) {
	path := filepath.Join("testdata", "golden_celf.json")
	got := goldenCELFRuns(t)
	if os.Getenv("INF2VEC_WRITE_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with INF2VEC_WRITE_GOLDEN=1): %v", err)
	}
	var want map[string]goldenCELFRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, fixture has %d", len(got), len(want))
	}
	for name, w := range want {
		gotJSON, _ := json.Marshal(got[name])
		wantJSON, _ := json.Marshal(w)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s diverged from the fixture:\n got %s\nwant %s", name, gotJSON, wantJSON)
		}
	}
}
