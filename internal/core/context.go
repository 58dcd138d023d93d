package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/diffusion"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
	"inf2vec/internal/rng"
	"inf2vec/internal/trainer"
	"inf2vec/internal/walk"
)

// Tuple is one (center user, influence context) training example — the
// (u, C_u^i) of Algorithm 1. Context entries are user IDs and may repeat.
// Training reorders them by block (see newStrata).
type Tuple struct {
	Center  int32
	Context []int32
}

// Corpus is the full set of training tuples generated from an action log,
// plus the per-user context-occurrence counts that parameterize weighted
// negative sampling.
type Corpus struct {
	Tuples       []Tuple
	ContextFreq  []int64 // per user: occurrences as a context node
	NumPositives int64   // total context entries (SGD positives per pass)
}

// corpusScratch holds per-worker reusable buffers for context generation, so
// the random walk of every adopter does not allocate a fresh slice.
type corpusScratch struct {
	walk []int32
}

// episodeContexts implements Algorithm 1 for every adopter of one episode,
// appending the resulting tuples.
func episodeContexts(pn *diffusion.PropNet, cfg Config, r *rng.RNG, out []Tuple, sc *corpusScratch) []Tuple {
	n := pn.NumNodes()
	localLen := int(float64(cfg.ContextLength)*cfg.Alpha + 0.5)
	globalLen := cfg.ContextLength - localLen
	for i := int32(0); int(i) < n; i++ {
		ctx := make([]int32, 0, cfg.ContextLength)
		// C_1: local influence context via random walk with restart.
		sc.walk = walk.AppendRestart(pn, i, localLen, cfg.RestartRatio, r, sc.walk[:0])
		for _, j := range sc.walk {
			ctx = append(ctx, pn.User(j))
		}
		// C_2: global user-similarity context — uniform samples from V_i,
		// excluding the center itself (a user does not influence their own
		// adoption). Sampling from [0, n-1) and shifting indices at or above
		// the center is an exact exclusion: every draw lands, so the context
		// always gets the full globalLen entries (the old resample-once
		// scheme skipped double collisions, systematically under-filling and
		// biasing contexts on small episodes).
		if n > 1 {
			for s := 0; s < globalLen; s++ {
				j := int32(r.Intn(n - 1))
				if j >= i {
					j++
				}
				ctx = append(ctx, pn.User(j))
			}
		}
		if len(ctx) == 0 {
			continue
		}
		out = append(out, Tuple{Center: pn.User(i), Context: ctx})
	}
	return out
}

// episodePairTuples emits first-order tuples only: one tuple per adopter
// whose context lists exactly the adopter's direct influence-pair targets.
// This is the "without Algorithm 1" mode of the efficiency experiment and
// the citation case study.
func episodePairTuples(pn *diffusion.PropNet, out []Tuple) []Tuple {
	for i := int32(0); int(i) < pn.NumNodes(); i++ {
		succ := pn.OutLocal(i)
		if len(succ) == 0 {
			continue
		}
		ctx := make([]int32, len(succ))
		for k, j := range succ {
			ctx[k] = pn.User(j)
		}
		out = append(out, Tuple{Center: pn.User(i), Context: ctx})
	}
	return out
}

// CorpusFromPairs builds a first-order training corpus directly from
// influence pairs, one tuple per source user whose context lists the
// sources' targets with multiplicity. The citation case study (§V-D) trains
// this way: "we only exploit first-order social influence pairs in [the]
// embedding model".
func CorpusFromPairs(numUsers int32, pairs []diffusion.Pair) *Corpus {
	bySource := make(map[int32][]int32)
	for _, p := range pairs {
		bySource[p.Source] = append(bySource[p.Source], p.Target)
	}
	c := &Corpus{ContextFreq: make([]int64, numUsers)}
	for u := int32(0); u < numUsers; u++ {
		targets, ok := bySource[u]
		if !ok {
			continue
		}
		c.Tuples = append(c.Tuples, Tuple{Center: u, Context: targets})
		for _, v := range targets {
			c.ContextFreq[v]++
			c.NumPositives++
		}
	}
	return c
}

// corpusGenWorkers resolves the effective corpus-generation worker count:
// the configured value (GOMAXPROCS when unset), clamped to the episode
// count.
func corpusGenWorkers(cfg Config, numEpisodes int) int {
	workers := cfg.CorpusWorkers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numEpisodes {
		workers = numEpisodes
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// corpusProgressInterval is the minimum spacing between intermediate
// corpus_progress telemetry events. A variable, not a constant, so tests can
// force per-episode emission.
var corpusProgressInterval = time.Second

// corpusProgress emits one corpus_progress telemetry event.
func corpusProgress(cfg Config, done, total, workers int, start time.Time) {
	e := trainer.Event{
		Kind: trainer.EventCorpusProgress, EpisodesDone: done, EpisodesTotal: total,
		CorpusWorkers: workers,
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		e.EpisodesPerSec = float64(done) / sec
	}
	cfg.emit(e)
}

// generateCorpus is GenerateCorpus as a "corpus_gen" child span of ctx's
// span, carrying episodes_total, workers and episodes_per_sec, and returns
// the corpus with the wall-clock time the span covers. A panic unwinding
// through it (a Telemetry sink's, at corpus_progress) ends the span
// "aborted".
func generateCorpus(ctx context.Context, g *graph.Graph, log *actionlog.Log, cfg Config, r *rng.RNG) (*Corpus, time.Duration) {
	span := obs.ChildSpan(ctx, "corpus_gen")
	defer span.EndWith("aborted")
	episodes := log.NumEpisodes()
	if span != nil {
		span.SetAttr("episodes_total", episodes)
		span.SetAttr("workers", corpusGenWorkers(cfg, episodes))
	}
	start := time.Now()
	c := GenerateCorpus(g, log, cfg, r)
	elapsed := time.Since(start)
	if span != nil && elapsed > 0 {
		span.SetAttr("episodes_per_sec", float64(episodes)/elapsed.Seconds())
	}
	span.End()
	return c, elapsed
}

// GenerateCorpus runs the context-generation phase of Algorithm 2 (lines
// 3–8) over every episode of the log, sharding episodes across
// cfg.CorpusWorkers goroutines.
//
// Each episode draws from its own generator, derived from a base value (one
// draw from r) keyed by the episode index, so the corpus is bitwise
// identical at any worker count and r advances identically whether the work
// ran on one goroutine or many — which is what lets Resume regenerate the
// exact corpus a checkpoint trained on regardless of how either run was
// parallelized.
func GenerateCorpus(g *graph.Graph, log *actionlog.Log, cfg Config, r *rng.RNG) *Corpus {
	base := r.Uint64()
	numEp := log.NumEpisodes()
	workers := corpusGenWorkers(cfg, numEp)
	start := time.Now()

	// With a cache attached, unchanged episodes reuse their previous tuples.
	// An episode's generator is derived purely from (base, index), so a hit
	// is bitwise identical to regenerating; fingerprints are recomputed for
	// every episode and the cache is repopulated wholesale below. Workers
	// only read the cache (the entries map is never written during the
	// parallel phase) and each writes disjoint slots of fps/hit.
	cache := cfg.CorpusCache
	cfgKey := corpusCfgKey(cfg)
	useCache := cache != nil && cache.valid(g, base, cfgKey)
	fps := make([]uint64, numEp)
	hit := make([]bool, numEp)

	// perEpisode[i] holds episode i's tuples; every slot is written by
	// exactly one worker, and the episode-order merge below keeps the slab
	// layout identical to the old sequential construction.
	perEpisode := make([][]Tuple, numEp)
	generate := func(i int, sc *corpusScratch) {
		ep := log.Episode(i)
		if cache != nil {
			fps[i] = episodeFingerprint(ep)
			if useCache {
				if tuples, ok := cache.lookup(i, ep.Item, fps[i]); ok {
					perEpisode[i], hit[i] = tuples, true
					return
				}
			}
		}
		pn := diffusion.BuildPropNet(g, ep)
		if cfg.FirstOrderOnly {
			perEpisode[i] = episodePairTuples(pn, nil)
		} else {
			perEpisode[i] = episodeContexts(pn, cfg, rng.Keyed(base, uint64(i)), nil, sc)
		}
	}

	if workers == 1 {
		sc := &corpusScratch{}
		last := start
		for i := 0; i < numEp; i++ {
			generate(i, sc)
			if cfg.Telemetry != nil && time.Since(last) >= corpusProgressInterval {
				last = time.Now()
				corpusProgress(cfg, i+1, numEp, workers, start)
			}
		}
	} else {
		var next, completed atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := &corpusScratch{}
				for {
					i := int(next.Add(1)) - 1
					if i >= numEp {
						return
					}
					generate(i, sc)
					completed.Add(1)
				}
			}()
		}
		if cfg.Telemetry == nil {
			wg.Wait()
		} else {
			// Telemetry sinks are called synchronously on the caller's
			// goroutine, so the coordinator ticks progress while the
			// workers drain the episode counter.
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			ticker := time.NewTicker(corpusProgressInterval)
		wait:
			for {
				select {
				case <-done:
					break wait
				case <-ticker.C:
					corpusProgress(cfg, int(completed.Load()), numEp, workers, start)
				}
			}
			ticker.Stop()
		}
	}

	if cache != nil {
		entries := make(map[int]cacheEntry, numEp)
		hits := 0
		for i, eps := range perEpisode {
			entries[i] = cacheEntry{item: log.Episode(i).Item, fp: fps[i], tuples: eps}
			if hit[i] {
				hits++
			}
		}
		cache.graph, cache.base, cache.cfgKey, cache.entries = g, base, cfgKey, entries
		cache.lastHits, cache.lastMisses = hits, numEp-hits
	}

	c := &Corpus{ContextFreq: make([]int64, log.NumUsers())}
	total := 0
	for _, eps := range perEpisode {
		total += len(eps)
	}
	c.Tuples = make([]Tuple, 0, total)
	for _, eps := range perEpisode {
		c.Tuples = append(c.Tuples, eps...)
	}
	for _, t := range c.Tuples {
		for _, v := range t.Context {
			c.ContextFreq[v]++
			c.NumPositives++
		}
	}
	corpusProgress(cfg, numEp, numEp, workers, start)
	return c
}
