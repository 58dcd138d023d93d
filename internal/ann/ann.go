// Package ann implements a pure-Go IVF-style (inverted-file, k-means
// cluster-pruned) approximate index over the target side of an influence
// embedding, for million-user top-k serving.
//
// The paper's pair score x(u,v) = S_u · T_v + b_u + b̃_v is, for a fixed
// source u, a maximum-inner-product search over the augmented target vectors
//
//	t̂(v) = [T_v ; b̃_v]   against the query   q(u) = [S_u ; 1]
//
// (b_u is constant per query and cannot change the ranking). The index
// k-means-clusters the t̂ vectors; a query scores every cluster centroid,
// probes the nprobe best clusters, and hands their members — the survivors —
// to an exact rescorer. Because survivors are re-scored through the exact
// scoring path (eval.Scorer.TopAmong, same aggregation, heap and NaN-safe
// total order as the full scan), the approximation only ever prunes the
// candidate set: every returned score, tie-break and NaN ordering is
// bit-identical to what exact mode would produce for those users.
//
// The index is sharded by user-ID range. Each shard owns a contiguous ID
// span with its own k-means clustering, and a search scatters one goroutine
// per shard (probe + exact rescore) before gathering the per-shard rankings
// through eval.MergeRanked — so /v1/topk latency scales with cores, not just
// with the pruning ratio.
//
// Construction is deterministic: all k-means randomness derives from
// Config.Seed through per-shard keyed RNG streams (rng.Keyed), so rebuilding
// the index for the same model bytes and config — at process start or on a
// SIGHUP hot reload — yields the same clusters regardless of scheduling.
// Rows containing NaN or ±Inf coordinates (a diverged model) cannot be
// clustered meaningfully; they go to a per-shard residual list that every
// query scans, which keeps a fully-NaN model's ANN answers identical to
// exact mode.
package ann

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"inf2vec/internal/eval"
	"inf2vec/internal/rng"
	"inf2vec/internal/vecmath"
)

// Source is the target-side slice of an embedding store the index reads at
// build time. *embed.Store satisfies it.
type Source interface {
	NumUsers() int32
	Dim() int
	// TargetVec returns the target embedding row T_v.
	TargetVec(v int32) []float32
	// BiasTarget returns a pointer to the conformity bias b̃_v.
	BiasTarget(v int32) *float32
}

// DefaultNProbe is the floor for the default per-shard probe width. The
// actual default scales with the shard's cluster count — max(DefaultNProbe,
// clusters/defaultProbeDiv), i.e. at least 1/24 of the clusters — because a
// fixed probe count that holds recall at 100k users silently decays as the
// universe (and with it the cluster count) grows. At the default cluster
// count (~3√rows per shard) this scans roughly 4-5% of each shard, which
// holds recall@10 near 0.98 on clustered embeddings while pruning the
// rescore set ~20x before parallelism.
const DefaultNProbe = 24

// defaultProbeDiv is the cluster-fraction divisor for the scaled default
// probe width: by default a query probes at least clusters/24 per shard.
const defaultProbeDiv = 24

const (
	// kmeansIters is the number of Lloyd iterations.
	kmeansIters = 6
	// samplePerCluster caps k-means training points at this multiple of the
	// cluster count; assignment still sweeps every row.
	samplePerCluster = 32
	// maxShards bounds the scatter width; beyond physical parallelism more
	// shards only add merge overhead.
	maxShards = 64
	// minShardRows keeps shards from fragmenting small universes: a shard
	// below this size costs more in goroutine scatter than it saves.
	minShardRows = 2048
	// maxClustersPerShard bounds the centroid sweep per shard.
	maxClustersPerShard = 4096
)

// Config parameterizes Build. The zero value selects production defaults;
// Seed should carry a fingerprint of the model (the serving layer passes the
// model file's CRC-32) so an index rebuild is deterministic per model bytes.
type Config struct {
	// Shards is the number of user-ID-range partitions (default: GOMAXPROCS,
	// clamped so every shard keeps at least minShardRows rows).
	Shards int
	// NProbe is the default clusters probed per shard at search time when
	// the Search call does not override it (default: scales with the
	// cluster count, see DefaultNProbe).
	NProbe int
	// Seed drives every random choice of the build.
	Seed uint64
}

func (c Config) withDefaults(n int32) Config {
	if c.Shards <= 0 {
		// Default: one shard per core, but never fragment a small universe
		// into shards below minShardRows. An explicit Shards setting is
		// honored as-is (tests pin it for determinism).
		c.Shards = runtime.GOMAXPROCS(0)
		if byRows := int(n) / minShardRows; c.Shards > byRows {
			c.Shards = byRows
		}
	}
	c.Shards = min(max(c.Shards, 1), maxShards)
	if int32(c.Shards) > n {
		c.Shards = int(n)
	}
	return c
}

// shard is one goroutine-owned partition of the index: a contiguous user-ID
// range, its k-means centroids over the augmented target vectors, the
// cluster member lists, and the residual rows (non-finite vectors) every
// query scans.
type shard struct {
	lo, hi    int32     // user-ID range [lo, hi)
	centroids []float32 // len(members) rows of dim
	members   [][]int32
	residual  []int32
}

// Index is an immutable sharded IVF index over one model's target vectors.
// All methods are safe for concurrent use; the serving layer builds a fresh
// Index per model load and swaps it atomically with the model.
type Index struct {
	n      int32
	dim    int // augmented dimension: embedding dim + 1
	nprobe int
	shards []shard
}

// NumUsers returns the indexed universe size.
func (ix *Index) NumUsers() int32 { return ix.n }

// Dim returns the augmented vector dimension (embedding dim + 1 for the
// conformity bias); queries passed to Search must have this length.
func (ix *Index) Dim() int { return ix.dim }

// NProbe returns the default per-shard probe width.
func (ix *Index) NProbe() int { return ix.nprobe }

// Shards returns the number of user-ID-range partitions.
func (ix *Index) Shards() int { return len(ix.shards) }

// Clusters returns the total cluster count across shards.
func (ix *Index) Clusters() int {
	total := 0
	for i := range ix.shards {
		total += len(ix.shards[i].members)
	}
	return total
}

// Query fills q (which must have length Dim()) with the augmented query
// vector [S_u ; 1] for the given source row, allocating when q is nil.
func Query(sourceVec []float32, q []float32) []float32 {
	if q == nil {
		q = make([]float32, len(sourceVec)+1)
	}
	copy(q, sourceVec)
	q[len(sourceVec)] = 1
	return q
}

// Build constructs the index over src deterministically: same src contents,
// cfg and seed always produce the same clusters, whatever the worker
// scheduling, because each shard draws from its own keyed RNG stream.
func Build(src Source, cfg Config) (*Index, error) {
	n, k := src.NumUsers(), src.Dim()
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("ann: cannot index a %d x %d store", n, k)
	}
	cfg = cfg.withDefaults(n)
	ix := &Index{n: n, dim: k + 1, nprobe: cfg.NProbe, shards: make([]shard, cfg.Shards)}
	// Contiguous even split of [0, n) across shards; the first rem shards
	// take one extra row.
	per, rem := n/int32(cfg.Shards), n%int32(cfg.Shards)
	lo := int32(0)
	var wg sync.WaitGroup
	for si := range ix.shards {
		hi := lo + per
		if int32(si) < rem {
			hi++
		}
		wg.Add(1)
		go func(si int, lo, hi int32) {
			defer wg.Done()
			ix.shards[si] = buildShard(src, lo, hi, ix.dim, rng.Keyed(cfg.Seed, uint64(si)))
		}(si, lo, hi)
		lo = hi
	}
	wg.Wait()
	if ix.nprobe <= 0 {
		// Scaled default: probe at least 1/defaultProbeDiv of the widest
		// shard's clusters, floored at DefaultNProbe, so recall at the
		// default holds steady as the universe grows.
		maxC := 0
		for si := range ix.shards {
			maxC = max(maxC, len(ix.shards[si].members))
		}
		ix.nprobe = max(DefaultNProbe, maxC/defaultProbeDiv)
	}
	return ix, nil
}

// buildShard clusters the augmented target vectors of [lo, hi).
func buildShard(src Source, lo, hi int32, dim int, r *rng.RNG) shard {
	rows := int(hi - lo)
	sh := shard{lo: lo, hi: hi}
	if rows == 0 {
		return sh
	}
	// Materialize the finite augmented vectors once (contiguous, cache
	// friendly for the k-means sweeps); non-finite rows go to the residual.
	vecs := make([]float32, 0, rows*dim)
	ids := make([]int32, 0, rows)
	for v := lo; v < hi; v++ {
		tv := src.TargetVec(v)
		b := *src.BiasTarget(v)
		if !finiteVec(tv) || math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			sh.residual = append(sh.residual, v)
			continue
		}
		vecs = append(vecs, tv...)
		vecs = append(vecs, b)
		ids = append(ids, v)
	}
	if len(ids) == 0 {
		return sh
	}
	// 3√rows clusters, finer than the classic √rows so each probed cluster
	// hands fewer rows to the exact rescorer.
	c := min(max(3*int(math.Sqrt(float64(len(ids)))), 1), min(maxClustersPerShard, len(ids)))
	sh.centroids = kmeans(vecs, len(ids), dim, c, r)
	// Final assignment pass: every finite row joins its nearest centroid.
	sh.members = make([][]int32, c)
	for i, id := range ids {
		best := nearestCentroid(vecs[i*dim:(i+1)*dim], sh.centroids, dim)
		sh.members[best] = append(sh.members[best], id)
	}
	return sh
}

func finiteVec(v []float32) bool {
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// nearestCentroid returns the index of the centroid closest to p in
// Euclidean distance, breaking ties toward the lower index (important for
// determinism on degenerate, all-identical inputs).
func nearestCentroid(p, centroids []float32, dim int) int {
	best, bestD := 0, math.Inf(1)
	for ci := 0; ci*dim < len(centroids); ci++ {
		d := vecmath.SquaredDistance(p, centroids[ci*dim:(ci+1)*dim])
		if d < bestD {
			best, bestD = ci, d
		}
	}
	return best
}

// kmeans runs k-means++ seeding and Lloyd iterations over a sample of the
// points (training cost is bounded by samplePerCluster·c regardless of shard
// size) and returns c centroids of dim floats each.
func kmeans(vecs []float32, npts, dim, c int, r *rng.RNG) []float32 {
	// Training sample: a seeded permutation prefix when the shard exceeds
	// the cap, else every point.
	sample := make([]int, npts)
	for i := range sample {
		sample[i] = i
	}
	if sampleCap := samplePerCluster * c; npts > sampleCap {
		r.ShuffleInts(sample)
		sample = sample[:sampleCap]
		sort.Ints(sample) // keep memory walks forward
	}
	pt := func(i int) []float32 { return vecs[i*dim : (i+1)*dim] }

	// k-means++ seeding over the sample: each next centroid is drawn with
	// probability proportional to its squared distance from the chosen set.
	centroids := make([]float32, 0, c*dim)
	centroids = append(centroids, pt(sample[r.Intn(len(sample))])...)
	d2 := make([]float64, len(sample))
	var sum float64
	for i, si := range sample {
		d2[i] = vecmath.SquaredDistance(pt(si), centroids[:dim])
		sum += d2[i]
	}
	for len(centroids) < c*dim {
		pick := sample[0]
		if sum > 0 {
			target := r.Float64() * sum
			acc := 0.0
			pick = sample[len(sample)-1]
			for i, si := range sample {
				acc += d2[i]
				if acc >= target {
					pick = si
					break
				}
			}
		}
		nc := pt(pick)
		centroids = append(centroids, nc...)
		sum = 0
		for i, si := range sample {
			if d := vecmath.SquaredDistance(pt(si), nc); d < d2[i] {
				d2[i] = d
			}
			sum += d2[i]
		}
	}

	// Lloyd iterations over the sample.
	sums := make([]float64, c*dim)
	counts := make([]int, c)
	assign := make([]int, len(sample))
	for it := 0; it < kmeansIters; it++ {
		for i := range sums {
			sums[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i, si := range sample {
			a := nearestCentroid(pt(si), centroids, dim)
			assign[i] = a
			counts[a]++
			for j, x := range pt(si) {
				sums[a*dim+j] += float64(x)
			}
		}
		for ci := 0; ci < c; ci++ {
			if counts[ci] == 0 {
				// Re-seed an empty cluster to the sample point farthest from
				// its current centroid — deterministic, and it splits the
				// largest spread instead of wasting the centroid.
				far, farD := sample[0], -1.0
				for i, si := range sample {
					if d := vecmath.SquaredDistance(pt(si), centroids[assign[i]*dim:(assign[i]+1)*dim]); d > farD {
						far, farD = si, d
					}
				}
				copy(centroids[ci*dim:(ci+1)*dim], pt(far))
				continue
			}
			inv := 1 / float64(counts[ci])
			for j := 0; j < dim; j++ {
				centroids[ci*dim+j] = float32(sums[ci*dim+j] * inv)
			}
		}
	}
	return centroids
}

// Rescorer exactly scores a batch of candidate user IDs and returns their
// ranking (best first). The serving layer backs it with
// eval.Scorer.TopAmong so ANN results inherit the exact path's scores,
// tie-breaks and NaN ordering bit-for-bit.
type Rescorer func(ctx context.Context, candidates []int32) ([]eval.Ranked, error)

// Stats reports what one Search swept.
type Stats struct {
	// ClustersProbed is the total clusters expanded across shards.
	ClustersProbed int
	// Candidates is the total candidate rows handed to the rescorer.
	Candidates int
	// ShardCandidates is the per-shard candidate count, index-aligned with
	// the shard layout (feeds the per-shard scan counters on /metrics).
	ShardCandidates []int
}

// Search runs the scatter-gather query: every shard, in its own goroutine,
// scores its centroids against q, expands its nprobe best clusters plus its
// residual rows, and exactly rescoress the survivors; the per-shard rankings
// are then merged into the overall topK. q must have length Dim() (see
// Query); nprobe <= 0 selects the index default.
func (ix *Index) Search(ctx context.Context, q []float32, nprobe, topK int, rescore Rescorer) ([]eval.Ranked, Stats, error) {
	if len(q) != ix.dim {
		return nil, Stats{}, fmt.Errorf("ann: query dimension %d, index wants %d", len(q), ix.dim)
	}
	if topK <= 0 {
		return nil, Stats{}, fmt.Errorf("ann: topK %d must be positive", topK)
	}
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	stats := Stats{ShardCandidates: make([]int, len(ix.shards))}
	lists := make([][]eval.Ranked, len(ix.shards))
	errs := make([]error, len(ix.shards))
	probed := make([]int, len(ix.shards))
	var wg sync.WaitGroup
	for si := range ix.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			cands, np := ix.shards[si].gather(q, nprobe)
			probed[si] = np
			stats.ShardCandidates[si] = len(cands)
			if len(cands) == 0 {
				return
			}
			lists[si], errs[si] = rescore(ctx, cands)
		}(si)
	}
	wg.Wait()
	for si, c := range stats.ShardCandidates {
		stats.Candidates += c
		stats.ClustersProbed += probed[si]
	}
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return eval.MergeRanked(topK, lists...), stats, nil
}

// gather returns the shard's candidate IDs for query q — the members of the
// nprobe clusters with the highest q·centroid inner product, plus every
// residual row — and the number of clusters expanded. Centroid selection
// uses a NaN-safe total order (NaN scores last, ties toward the lower
// cluster index) so a non-finite query still probes deterministically; the
// total order makes the selected set unique, so the heap's internal layout
// never leaks into results. A bounded selection heap picks the probe set in
// O(nc log nprobe) without sort.Slice's per-comparison closure and
// reflection-swap overhead, which dominated gather at production cluster
// counts.
func (sh *shard) gather(q []float32, nprobe int) ([]int32, int) {
	nc := len(sh.members)
	probe := min(nprobe, nc)
	var keep []int
	if probe > 0 {
		dim := len(q)
		scores := make([]float32, nc)
		for ci := 0; ci < nc; ci++ {
			scores[ci] = vecmath.Dot(q, sh.centroids[ci*dim:(ci+1)*dim])
		}
		// better reports whether centroid i strictly outranks centroid j.
		better := func(i, j int) bool {
			si, sj := float64(scores[i]), float64(scores[j])
			iNaN, jNaN := math.IsNaN(si), math.IsNaN(sj)
			switch {
			case iNaN != jNaN:
				return jNaN
			case !iNaN && si != sj:
				return si > sj
			}
			return i < j
		}
		// Bounded heap over cluster indices, worst kept entry at the root: a
		// full heap admits a cluster only by evicting the root.
		siftDown := func(i int) {
			for {
				worst := i
				if l := 2*i + 1; l < probe && better(keep[worst], keep[l]) {
					worst = l
				}
				if r := 2*i + 2; r < probe && better(keep[worst], keep[r]) {
					worst = r
				}
				if worst == i {
					return
				}
				keep[i], keep[worst] = keep[worst], keep[i]
				i = worst
			}
		}
		keep = make([]int, 0, probe)
		for ci := 0; ci < nc; ci++ {
			if len(keep) < probe {
				keep = append(keep, ci)
				for i := len(keep) - 1; i > 0; {
					parent := (i - 1) / 2
					if !better(keep[parent], keep[i]) {
						break
					}
					keep[i], keep[parent] = keep[parent], keep[i]
					i = parent
				}
				continue
			}
			if !better(ci, keep[0]) {
				continue
			}
			keep[0] = ci
			siftDown(0)
		}
	}
	total := len(sh.residual)
	for _, ci := range keep {
		total += len(sh.members[ci])
	}
	if total == 0 {
		return nil, probe
	}
	cands := make([]int32, 0, total)
	cands = append(cands, sh.residual...)
	for _, ci := range keep {
		cands = append(cands, sh.members[ci]...)
	}
	return cands, probe
}
