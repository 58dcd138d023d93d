// Package tsne implements exact t-distributed stochastic neighbor embedding
// (van der Maaten & Hinton, JMLR 2008), the dimension-reduction tool behind
// the paper's Figure 6 visualization of learned influence embeddings.
//
// The implementation is the standard exact O(n²) algorithm: Gaussian input
// affinities with per-point bandwidths found by binary search on perplexity,
// symmetrization, early exaggeration, and momentum gradient descent on the
// Student-t output affinities. It is intended for the Figure 6 scale
// (hundreds of points), not for millions.
package tsne

import (
	"fmt"
	"math"

	"inf2vec/internal/rng"
)

// learningRate is the gradient descent step size.
const learningRate = 100

// Config controls the embedding.
type Config struct {
	// Perplexity is the effective neighbor count (default 30; it is clamped
	// to at most (n-1)/3 as usual).
	Perplexity float64
	// Iterations of gradient descent (default 500).
	Iterations int
	// Seed drives the initial layout.
	Seed uint64
}

func (cfg Config) withDefaults(n int) (Config, error) {
	if cfg.Perplexity == 0 {
		cfg.Perplexity = 30
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 500
	}
	if cfg.Perplexity < 1 || cfg.Iterations < 1 {
		return cfg, fmt.Errorf("tsne: invalid config %+v", cfg)
	}
	if maxPerp := float64(n-1) / 3; cfg.Perplexity > maxPerp && maxPerp >= 1 {
		cfg.Perplexity = maxPerp
	}
	return cfg, nil
}

// Point is a 2-D embedding coordinate.
type Point struct{ X, Y float64 }

// Embed maps the n×d input vectors to 2-D. It returns an error for fewer
// than four points (perplexity is meaningless below that).
func Embed(x [][]float32, cfg Config) ([]Point, error) {
	n := len(x)
	if n < 4 {
		return nil, fmt.Errorf("tsne: need at least 4 points, got %d", n)
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("tsne: row %d has dimension %d, want %d", i, len(row), d)
		}
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}

	p := inputAffinities(x, cfg.Perplexity)

	// Early exaggeration.
	const exaggeration = 12.0
	exaggerationIters := cfg.Iterations / 4
	for i := range p {
		p[i] *= exaggeration
	}

	r := rng.New(cfg.Seed)
	y := make([]Point, n)
	for i := range y {
		y[i] = Point{X: r.NormFloat64() * 1e-4, Y: r.NormFloat64() * 1e-4}
	}
	vel := make([]Point, n)
	grad := make([]Point, n)
	gain := make([]Point, n)
	for i := range gain {
		gain[i] = Point{X: 1, Y: 1}
	}
	q := make([]float64, n*n)

	for iter := 0; iter < cfg.Iterations; iter++ {
		if iter == exaggerationIters {
			for i := range p {
				p[i] /= exaggeration
			}
		}
		momentum := 0.5
		if iter >= exaggerationIters {
			momentum = 0.8
		}

		// Student-t output affinities (unnormalized) and their sum.
		var qSum float64
		for i := 0; i < n; i++ {
			q[i*n+i] = 0
			for j := i + 1; j < n; j++ {
				dx := y[i].X - y[j].X
				dy := y[i].Y - y[j].Y
				w := 1 / (1 + dx*dx + dy*dy)
				q[i*n+j] = w
				q[j*n+i] = w
				qSum += 2 * w
			}
		}
		if qSum < 1e-12 {
			qSum = 1e-12
		}

		// Gradient: 4 Σ_j (p_ij − q_ij) w_ij (y_i − y_j).
		for i := range grad {
			grad[i] = Point{}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				w := q[i*n+j]
				mult := 4 * (p[i*n+j] - w/qSum) * w
				grad[i].X += mult * (y[i].X - y[j].X)
				grad[i].Y += mult * (y[i].Y - y[j].Y)
			}
		}
		// Adaptive per-coordinate gains (van der Maaten's reference
		// implementation): boost coordinates whose gradient keeps pointing
		// against the velocity, damp the rest.
		for i := range y {
			gain[i].X = updateGain(gain[i].X, grad[i].X, vel[i].X)
			gain[i].Y = updateGain(gain[i].Y, grad[i].Y, vel[i].Y)
			vel[i].X = momentum*vel[i].X - learningRate*gain[i].X*grad[i].X
			vel[i].Y = momentum*vel[i].Y - learningRate*gain[i].Y*grad[i].Y
			y[i].X += vel[i].X
			y[i].Y += vel[i].Y
		}
		// Re-center to keep coordinates bounded.
		var cx, cy float64
		for i := range y {
			cx += y[i].X
			cy += y[i].Y
		}
		cx /= float64(n)
		cy /= float64(n)
		for i := range y {
			y[i].X -= cx
			y[i].Y -= cy
		}
	}
	return y, nil
}

// updateGain applies the reference implementation's gain schedule.
func updateGain(gain, grad, vel float64) float64 {
	if (grad > 0) != (vel > 0) {
		gain += 0.2
	} else {
		gain *= 0.8
	}
	if gain < 0.01 {
		gain = 0.01
	}
	return gain
}

// inputAffinities computes the symmetrized, normalized joint probabilities
// p_ij from the input vectors, with per-point bandwidth found by binary
// search to match the target perplexity.
func inputAffinities(x [][]float32, perplexity float64) []float64 {
	n := len(x)
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k := range x[i] {
				d := float64(x[i][k]) - float64(x[j][k])
				s += d * d
			}
			dist[i*n+j] = s
			dist[j*n+i] = s
		}
	}

	logPerp := math.Log(perplexity)
	p := make([]float64, n*n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		// Binary search beta = 1/(2σ²) so the row entropy matches log(perp).
		beta := 1.0
		betaMin, betaMax := math.Inf(-1), math.Inf(1)
		for attempt := 0; attempt < 50; attempt++ {
			var sum float64
			for j := 0; j < n; j++ {
				if j == i {
					row[j] = 0
					continue
				}
				row[j] = math.Exp(-dist[i*n+j] * beta)
				sum += row[j]
			}
			var entropy float64
			if sum > 0 {
				for j := 0; j < n; j++ {
					if row[j] > 0 {
						pj := row[j] / sum
						entropy -= pj * math.Log(pj)
					}
				}
			}
			diff := entropy - logPerp
			if math.Abs(diff) < 1e-5 {
				break
			}
			if diff > 0 {
				betaMin = beta
				if math.IsInf(betaMax, 1) {
					beta *= 2
				} else {
					beta = (beta + betaMax) / 2
				}
			} else {
				betaMax = beta
				if math.IsInf(betaMin, -1) {
					beta /= 2
				} else {
					beta = (beta + betaMin) / 2
				}
			}
		}
		var sum float64
		for j := 0; j < n; j++ {
			if j != i {
				row[j] = math.Exp(-dist[i*n+j] * beta)
				sum += row[j]
			}
		}
		if sum == 0 {
			// Degenerate row (all points identical): uniform fallback.
			for j := 0; j < n; j++ {
				if j != i {
					p[i*n+j] = 1 / float64(n-1)
				}
			}
			continue
		}
		for j := 0; j < n; j++ {
			if j != i {
				p[i*n+j] = row[j] / sum
			}
		}
	}
	// Symmetrize and normalize: p_ij = (p_j|i + p_i|j) / 2n, floored.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i*n+j] + p[j*n+i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			p[i*n+j] = v
			p[j*n+i] = v
		}
	}
	return p
}

// PairProximity quantifies Figure 6: the mean Euclidean distance in the 2-D
// layout between the two endpoints of each given index pair, normalized by
// the mean distance over all point pairs. Values well below 1 mean the
// highlighted influence pairs sit closer than chance.
func PairProximity(layout []Point, pairs [][2]int) (float64, error) {
	if len(layout) < 2 || len(pairs) == 0 {
		return 0, fmt.Errorf("tsne: proximity needs >=2 points and >=1 pair")
	}
	distance := func(a, b Point) float64 {
		return math.Hypot(a.X-b.X, a.Y-b.Y)
	}
	var pairSum float64
	for _, pr := range pairs {
		if pr[0] < 0 || pr[0] >= len(layout) || pr[1] < 0 || pr[1] >= len(layout) {
			return 0, fmt.Errorf("tsne: pair %v out of range", pr)
		}
		pairSum += distance(layout[pr[0]], layout[pr[1]])
	}
	pairMean := pairSum / float64(len(pairs))

	var allSum float64
	var count int
	for i := 0; i < len(layout); i++ {
		for j := i + 1; j < len(layout); j++ {
			allSum += distance(layout[i], layout[j])
			count++
		}
	}
	allMean := allSum / float64(count)
	if allMean == 0 {
		return 0, fmt.Errorf("tsne: degenerate layout (all points identical)")
	}
	return pairMean / allMean, nil
}
