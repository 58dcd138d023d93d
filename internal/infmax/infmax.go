// Package infmax implements influence maximization — the viral-marketing
// application the paper's introduction motivates: choose k seed users
// maximizing expected cascade size under the IC model (Kempe, Kleinberg &
// Tardos, KDD 2003).
//
// Greedy selection with the CELF lazy-evaluation optimization (Leskovec et
// al., KDD 2007) exploits submodularity of the spread function: a
// candidate's marginal gain can only shrink as the seed set grows, so stale
// upper bounds prune most spread evaluations.
//
// Greedy is an *anytime* algorithm built for serving: it runs under a
// context deadline and an evaluation budget, and when either expires it
// returns the seeds selected so far flagged Partial instead of an error or
// a hang. Because selection order is a deterministic function of the
// evaluation stream, an interrupted run's seed list is always an exact
// prefix of the uninterrupted run's selection — graceful degradation, never
// a torn answer.
//
// The spread oracle is pluggable: evaluate against learned edge
// probabilities (ST/EM), against an Inf2vec model's scores mapped through a
// sigmoid, or against planted ground truth in experiments. Whatever the
// oracle, a run reads it once per edge (ic.Tabulate) and simulates over the
// table.
package infmax

import (
	"container/heap"
	"context"
	"fmt"

	"inf2vec/internal/graph"
	"inf2vec/internal/ic"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

// Stop reasons recorded in Result.Stopped when a run ends early. An empty
// Stopped means the run completed its full seed budget.
const (
	// StopDeadline: the context's deadline expired mid-selection.
	StopDeadline = "deadline"
	// StopCanceled: the context was canceled (client gone, server draining).
	StopCanceled = "canceled"
	// StopBudget: Config.MaxEvaluations spread estimations were spent.
	StopBudget = "budget"
	// StopOracle: the fault-injection hook (or a failing oracle adapter)
	// reported an evaluation error.
	StopOracle = "oracle_error"
)

// Config controls the greedy optimization.
type Config struct {
	// Seeds is k, the budget. Must be positive.
	Seeds int
	// MonteCarloRuns per spread evaluation. Zero selects 200.
	MonteCarloRuns int
	// Seed drives the simulations.
	Seed uint64
	// Candidates restricts the search to a subset of users (nil = all).
	// Restricting to, say, the top few hundred users by degree or learned
	// influence ability makes CELF tractable on large graphs. IDs must lie
	// in the graph's node range and be free of duplicates.
	Candidates []int32
	// MaxEvaluations bounds the number of Monte-Carlo spread estimations
	// (the compute budget). Zero means unlimited; exhaustion stops the run
	// with the seeds selected so far (Result.Partial, StopBudget).
	MaxEvaluations int
	// Hooks inject faults for testing; zero value is inert.
	Hooks Hooks
}

// Hooks is the observation and fault-injection seam. BeforeEval runs before
// every spread evaluation with the evaluation index (0-based) and the seed
// set about to be evaluated; returning an error stops the run with the seeds
// selected so far (Result.Partial, StopOracle). Tests use it to fail
// evaluation N, to stall (slow oracle) or to cancel the context at
// evaluation N; the serving layer uses it to checkpoint evaluation progress
// into trace spans. OnSelect fires each time a seed is committed to the
// result, with its estimated cumulative spread and the evaluations spent so
// far — span-event material, never a control-flow hook.
type Hooks struct {
	BeforeEval func(eval int, seeds []int32) error
	OnSelect   func(seed int32, spread float64, evaluations int)
}

// Result is the selected seed set with its estimated spread trajectory.
type Result struct {
	// Seeds in selection order. When Partial, an exact prefix of the seeds
	// the uninterrupted run would have selected.
	Seeds []int32
	// Spread[i] is the estimated expected cascade size of Seeds[:i+1].
	Spread []float64
	// Evaluations counts Monte-Carlo spread estimations performed; CELF's
	// pruning makes this far smaller than Seeds × |Candidates|.
	Evaluations int
	// Partial reports that the run stopped before selecting all cfg.Seeds
	// seeds; Stopped says why. Seeds/Spread hold the best-so-far prefix
	// (possibly empty when interruption hit during the initial candidate
	// pass, before any selection was safe to make).
	Partial bool
	// Stopped is one of the Stop* constants when Partial, else "".
	Stopped string
}

// celfEntry is a lazily re-evaluated candidate.
type celfEntry struct {
	user  int32
	gain  float64 // upper bound on marginal gain
	round int     // seed-set size at which gain was computed
}

type celfHeap []celfEntry

func (h celfHeap) Len() int           { return len(h) }
func (h celfHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h celfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x any)        { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// errStop carries the early-stop classification out of the spread closure.
type errStop struct{ reason string }

func (e errStop) Error() string { return "infmax: stopped: " + e.reason }

// validateCandidates rejects out-of-range IDs and duplicates up front with a
// clear error, instead of letting them panic deep inside the IC simulation
// (negative IDs) or silently skew spread estimates (duplicates would let one
// user be "selected" twice, wasting seed budget on a zero marginal gain).
func validateCandidates(cands []int32, n int32) error {
	seen := make(map[int32]bool, len(cands))
	for i, u := range cands {
		if u < 0 || u >= n {
			return fmt.Errorf("infmax: candidate %d (index %d) outside node range [0,%d)", u, i, n)
		}
		if seen[u] {
			return fmt.Errorf("infmax: duplicate candidate %d (index %d)", u, i)
		}
		seen[u] = true
	}
	return nil
}

// Greedy selects cfg.Seeds users by CELF-accelerated greedy maximization of
// expected IC spread under the given edge probabilities.
//
// It is anytime: deadline expiry, cancellation, budget exhaustion or an
// injected oracle failure all end the run gracefully with
// (Result{Partial: true, Stopped: why}, nil) carrying the seeds selected so
// far. A non-nil error is returned only for invalid configuration.
//
// probs is tabulated inside evaluation 0, after Hooks.BeforeEval, so the
// deadline bounds it like any spread estimate. It must answer as a pure
// function of (u, v) for the run (see ic.EdgeProber).
func Greedy(ctx context.Context, g *graph.Graph, probs ic.EdgeProber, cfg Config) (*Result, error) {
	if cfg.Seeds <= 0 {
		return nil, fmt.Errorf("infmax: seed budget %d must be positive", cfg.Seeds)
	}
	if cfg.MonteCarloRuns == 0 {
		cfg.MonteCarloRuns = 200
	}
	if cfg.MonteCarloRuns < 0 {
		return nil, fmt.Errorf("infmax: MonteCarloRuns %d must be positive", cfg.MonteCarloRuns)
	}
	if cfg.MaxEvaluations < 0 {
		return nil, fmt.Errorf("infmax: MaxEvaluations %d must not be negative", cfg.MaxEvaluations)
	}
	candidates := cfg.Candidates
	if candidates == nil {
		candidates = make([]int32, g.NumNodes())
		for u := int32(0); u < g.NumNodes(); u++ {
			candidates[u] = u
		}
	} else if err := validateCandidates(candidates, g.NumNodes()); err != nil {
		return nil, err
	}
	if len(candidates) < cfg.Seeds {
		return nil, fmt.Errorf("infmax: %d candidates for %d seeds", len(candidates), cfg.Seeds)
	}
	r := rng.New(cfg.Seed)
	res := &Result{}
	var table *ic.EdgeProbs // probs, tabulated by evaluation 0

	// spread runs one budgeted, deadline-bounded evaluation. An errStop
	// return classifies why the run must end; selections already made stay
	// valid because every completed evaluation is identical to the
	// uninterrupted run's (same order, same RNG stream).
	spread := func(seeds []int32) (float64, error) {
		if cfg.MaxEvaluations > 0 && res.Evaluations >= cfg.MaxEvaluations {
			return 0, errStop{StopBudget}
		}
		if h := cfg.Hooks.BeforeEval; h != nil {
			if err := h(res.Evaluations, seeds); err != nil {
				return 0, errStop{StopOracle}
			}
		}
		res.Evaluations++
		var s float64
		var err error
		if table == nil {
			table, err = ic.Tabulate(ctx, g, probs)
		}
		if err == nil {
			s, err = ic.ExpectedSpread(ctx, table, seeds, cfg.MonteCarloRuns, r)
		}
		switch {
		case err == nil:
			return s, nil
		case ctx.Err() == context.DeadlineExceeded:
			return 0, errStop{StopDeadline}
		default:
			// The runs are positive, so only ctx can fail an evaluation.
			return 0, errStop{StopCanceled}
		}
	}
	// stop finalizes an anytime return: the seeds selected so far, flagged.
	stop := func(err error) (*Result, error) {
		res.Partial = true
		res.Stopped = err.(errStop).reason
		return res, nil
	}

	// Initial pass: every candidate's solo spread seeds the CELF queue. An
	// interruption here yields an empty (but still valid) prefix — selecting
	// from a partially evaluated pool could pick a seed the full run would
	// not, breaking the prefix guarantee.
	h := make(celfHeap, 0, len(candidates))
	solo := make([]int32, 1)
	for _, u := range candidates {
		solo[0] = u
		s, err := spread(solo)
		if err != nil {
			return stop(err)
		}
		h = append(h, celfEntry{user: u, gain: s, round: 0})
	}
	heap.Init(&h)

	// scratch holds the tentative seed set for stale re-evaluations; one
	// buffer reused across every lazy re-check instead of a fresh slice per
	// stale pop (the CELF hot loop's only allocation).
	scratch := make([]int32, 0, cfg.Seeds)
	var current float64
	for len(res.Seeds) < cfg.Seeds && h.Len() > 0 {
		top := heap.Pop(&h).(celfEntry)
		if top.round == len(res.Seeds) {
			// Fresh bound: by submodularity it is exact, select it.
			res.Seeds = append(res.Seeds, top.user)
			current += top.gain
			res.Spread = append(res.Spread, current)
			if cfg.Hooks.OnSelect != nil {
				cfg.Hooks.OnSelect(top.user, current, res.Evaluations)
			}
			continue
		}
		// Stale: re-evaluate the marginal gain against the current set.
		scratch = append(append(scratch[:0], res.Seeds...), top.user)
		total, err := spread(scratch)
		if err != nil {
			return stop(err)
		}
		gain := total - current
		if gain < 0 {
			gain = 0 // Monte-Carlo noise; spread is monotone
		}
		heap.Push(&h, celfEntry{user: top.user, gain: gain, round: len(res.Seeds)})
	}
	return res, nil
}

// ModelProber adapts a latent pair scorer into an EdgeProber by mapping the
// score of each real edge through a logistic link: P_uv = σ(x(u,v) + Offset).
// It lets a trained Inf2vec model drive IC-based seed selection.
type ModelProber struct {
	G *graph.Graph
	// Score returns the learned pair affinity x(u,v).
	Score func(u, v int32) float64
	// Offset shifts the logistic link; more negative means more
	// conservative probabilities.
	Offset float64
}

// Prob returns σ(Score(u,v)+Offset) for edges of G and 0 otherwise.
func (m *ModelProber) Prob(u, v int32) float64 {
	if !m.G.HasEdge(u, v) {
		return 0
	}
	return vecmath.Sigmoid(m.Score(u, v) + m.Offset)
}
