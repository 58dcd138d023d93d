package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickSuite builds a shared quick-scale suite; model training is cached
// across subtests. Every model it trains is bitwise the same at any
// Workers value.
func quickSuite(t *testing.T) *Suite {
	t.Helper()
	return NewSuite(Options{Seed: 1, Scale: 4, Workers: 1})
}

func findRow(t *testing.T, dr DatasetResults, method string) MethodResult {
	t.Helper()
	for _, row := range dr.Rows {
		if row.Method == method {
			return row
		}
	}
	t.Fatalf("method %s missing from %s results", method, dr.Dataset)
	return MethodResult{}
}

func TestSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	s := quickSuite(t)

	t.Run("TableI", func(t *testing.T) {
		rows, err := s.TableI()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("rows = %d, want 2", len(rows))
		}
		for _, r := range rows {
			if r.Users == 0 || r.Edges == 0 || r.Items == 0 || r.Actions == 0 {
				t.Fatalf("empty statistics row %+v", r)
			}
		}
	})

	t.Run("Figures123", func(t *testing.T) {
		f1, err := s.Figure1()
		if err != nil {
			t.Fatal(err)
		}
		f2, err := s.Figure2()
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range append(f1, f2...) {
			if len(fig.Points) == 0 {
				t.Fatalf("%s: empty frequency figure", fig.Dataset)
			}
			if fig.LogLogSlope >= 0 {
				t.Errorf("%s: log-log slope %v not negative", fig.Dataset, fig.LogLogSlope)
			}
		}
		f3, err := s.Figure3()
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range f3 {
			if fig.Y[0] <= 0.2 || fig.Y[0] >= 0.95 {
				t.Errorf("%s: CDF(0) = %v implausible", fig.Dataset, fig.Y[0])
			}
			for i := 1; i < len(fig.Y); i++ {
				if fig.Y[i] < fig.Y[i-1] {
					t.Errorf("%s: CDF not monotone", fig.Dataset)
				}
			}
		}
	})

	t.Run("TableII", func(t *testing.T) {
		results, err := s.TableII()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("datasets = %d", len(results))
		}
		for _, dr := range results {
			if len(dr.Rows) != len(MethodNames()) {
				t.Fatalf("%s: %d rows", dr.Dataset, len(dr.Rows))
			}
		}
		// The paper's claims are asserted in TestPaperClaimsOnThreeSeeds.
	})

	t.Run("TableIII", func(t *testing.T) {
		results, err := s.TableIII()
		if err != nil {
			t.Fatal(err)
		}
		for _, dr := range results {
			if len(dr.Rows) != len(MethodNames()) {
				t.Fatalf("%s: %d rows", dr.Dataset, len(dr.Rows))
			}
		}
	})

	t.Run("TableIV", func(t *testing.T) {
		rows, err := s.TableIV()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("rows = %d, want 4", len(rows))
		}
	})

	t.Run("TableV", func(t *testing.T) {
		rows, err := s.TableV()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 {
			t.Fatalf("rows = %d, want 2 datasets x 4 aggregators", len(rows))
		}
	})

	t.Run("Figure6", func(t *testing.T) {
		figs, err := s.Figure6()
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 4 {
			t.Fatalf("methods = %d, want 4", len(figs))
		}
		for _, fig := range figs {
			if fig.Proximity <= 0 {
				t.Errorf("%s: proximity %v", fig.Method, fig.Proximity)
			}
			if len(fig.Layout) != len(fig.Users) {
				t.Errorf("%s: layout/users mismatch", fig.Method)
			}
		}
	})

	t.Run("Figures78", func(t *testing.T) {
		f7, err := s.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		f8, err := s.Figure8()
		if err != nil {
			t.Fatal(err)
		}
		for _, fig := range append(f7, f8...) {
			if len(fig.Points) == 0 {
				t.Fatalf("%s: empty sweep", fig.Dataset)
			}
			for _, p := range fig.Points {
				if p.MAP < 0 || p.MAP > 1 {
					t.Errorf("%s: MAP %v out of range", fig.Dataset, p.MAP)
				}
			}
		}
	})

	t.Run("Figure9", func(t *testing.T) {
		figs, err := s.Figure9()
		if err != nil {
			t.Fatal(err)
		}
		if len(figs) != 6 {
			t.Fatalf("series = %d, want 6", len(figs))
		}
		for _, fig := range figs {
			for _, p := range fig.Points {
				if p.Seconds < 0 {
					t.Errorf("%s/%s: negative time", fig.Dataset, fig.Method)
				}
			}
		}
	})

	t.Run("TableVI", func(t *testing.T) {
		res, err := s.TableVI()
		if err != nil {
			t.Fatal(err)
		}
		if res.NumTestAuthors == 0 {
			t.Fatal("no test authors")
		}
		if res.EmbeddingPrecision <= res.ConventionalPrecision {
			t.Errorf("embedding P@10 %v not above conventional %v",
				res.EmbeddingPrecision, res.ConventionalPrecision)
		}
	})

	t.Run("SeedsAnytime", func(t *testing.T) {
		rows, err := s.SeedsAnytime()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 5 {
			t.Fatalf("rows = %d, want 5 budget points", len(rows))
		}
		final := rows[len(rows)-1]
		if final.Stopped != "" || final.Budget != 0 {
			t.Fatalf("last row must be the uninterrupted baseline, got %+v", final)
		}
		for i, r := range rows {
			if i > 0 && r.Seeds < rows[i-1].Seeds {
				t.Fatalf("seed count not monotone in budget: %+v", rows)
			}
			if r.Seeds > final.Seeds {
				t.Fatalf("budgeted run selected more seeds than the full run: %+v", rows)
			}
			if r.Budget > 0 {
				if r.Evaluations > r.Budget {
					t.Fatalf("row %d overspent its budget: %+v", i, r)
				}
				if r.Stopped != "budget" && r.Seeds != final.Seeds {
					t.Fatalf("interrupted row %d has no stop reason: %+v", i, r)
				}
			}
		}
		var sb strings.Builder
		if err := RenderSeedsAnytime(&sb, rows); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "Anytime CELF") {
			t.Fatalf("render output missing title:\n%s", sb.String())
		}
	})

	t.Run("Render", func(t *testing.T) {
		var sb strings.Builder
		rows, err := s.TableI()
		if err != nil {
			t.Fatal(err)
		}
		if err := RenderTableI(&sb, rows); err != nil {
			t.Fatal(err)
		}
		t2, err := s.TableII()
		if err != nil {
			t.Fatal(err)
		}
		if err := RenderMethodTable(&sb, "Table II", t2); err != nil {
			t.Fatal(err)
		}
		t6, err := s.TableVI()
		if err != nil {
			t.Fatal(err)
		}
		if err := RenderTableVI(&sb, t6); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		for _, want := range []string{"Table I", "digg-like", "Inf2vec", "Table VI"} {
			if !strings.Contains(out, want) {
				t.Errorf("render output missing %q", want)
			}
		}
	})
}

// TestPaperClaimsOnThreeSeeds asserts the paper's claims that the suite
// reproduces, on seeds 1, 2 and 3 at half scale, each with a margin:
// Inf2vec's AUC is at least DE's + 0.05 in Table II (activation) and
// Table III (diffusion) on both datasets, and Inf2vec's MAP is at least
// 1.3 times Node2vec's in Table II. At quick scale one seed's claims held
// only by luck; EXPERIMENTS.md lists the margins on seeds 1-5.
func TestPaperClaimsOnThreeSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three half-scale suites")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := NewSuite(Options{Seed: seed, Scale: 2})
			t2, err := s.TableII()
			if err != nil {
				t.Fatal(err)
			}
			t3, err := s.TableIII()
			if err != nil {
				t.Fatal(err)
			}
			for _, dr := range t2 {
				inf, de, n2v := findRow(t, dr, "Inf2vec"), findRow(t, dr, "DE"), findRow(t, dr, "Node2vec")
				t.Logf("Table II %s: AUC Inf2vec %.4f DE %.4f (margin %+.4f); MAP Inf2vec %.4f Node2vec %.4f (ratio %.2fx)",
					dr.Dataset, inf.Metrics.AUC, de.Metrics.AUC, inf.Metrics.AUC-de.Metrics.AUC,
					inf.Metrics.MAP, n2v.Metrics.MAP, inf.Metrics.MAP/n2v.Metrics.MAP)
				if inf.Metrics.AUC < de.Metrics.AUC+0.05 {
					t.Errorf("Table II %s: Inf2vec AUC %.4f below DE's %.4f + 0.05", dr.Dataset, inf.Metrics.AUC, de.Metrics.AUC)
				}
				if inf.Metrics.MAP < 1.3*n2v.Metrics.MAP {
					t.Errorf("Table II %s: Inf2vec MAP %.4f below 1.3 x Node2vec's %.4f", dr.Dataset, inf.Metrics.MAP, n2v.Metrics.MAP)
				}
			}
			for _, dr := range t3 {
				inf, de := findRow(t, dr, "Inf2vec"), findRow(t, dr, "DE")
				t.Logf("Table III %s: AUC Inf2vec %.4f DE %.4f (margin %+.4f)",
					dr.Dataset, inf.Metrics.AUC, de.Metrics.AUC, inf.Metrics.AUC-de.Metrics.AUC)
				if inf.Metrics.AUC < de.Metrics.AUC+0.05 {
					t.Errorf("Table III %s: Inf2vec AUC %.4f below DE's %.4f + 0.05", dr.Dataset, inf.Metrics.AUC, de.Metrics.AUC)
				}
			}
		})
	}
}

func TestUnknownDataset(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.Dataset("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetCached(t *testing.T) {
	s := quickSuite(t)
	a, err := s.Dataset("digg-like")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Dataset("digg-like")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
}
