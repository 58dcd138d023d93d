package rng

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadWeights is returned when an alias table is built from weights that
// are empty, negative, NaN, or sum to zero.
var ErrBadWeights = errors.New("rng: weights must be non-empty, finite, non-negative, and not all zero")

// Alias is Walker's alias method for O(1) sampling from a fixed discrete
// distribution. Building is O(n); each Sample is two random numbers, one
// comparison and one slot read. It is the workhorse behind weighted negative
// sampling and the synthetic data generator's preferential attachment.
//
// An Alias table is immutable after construction and safe for concurrent
// Sample calls (each call uses the caller-supplied RNG for state).
type Alias struct {
	slots []aliasSlot
}

// aliasSlot is one outcome's bucket. A draw that lands in the bucket keeps
// its outcome with probability prob and takes alias otherwise. The test is
// Uint64()>>11 < threshold, with threshold = ceil(prob·2^53): Float64() is
// exactly (Uint64()>>11)/2^53, and for an integer m, m/2^53 < prob holds
// exactly when m < ceil(prob·2^53), so every draw makes the decision that
// Float64() < prob makes. Keeping every field in one slot costs one cache
// line per draw where several arrays would cost more; self fits where the
// slot would otherwise hold padding.
type aliasSlot struct {
	threshold   uint64
	self, alias int32 // the outcomes drawn on either side of the threshold
}

// aliasThreshold returns ceil(prob·2^53) for prob in [0, 1]; the product is
// exact, since scaling by a power of two rounds nothing here.
func aliasThreshold(prob float64) uint64 {
	return uint64(math.Ceil(prob * (1 << 53)))
}

// NewAlias builds an alias table over weights. The weights need not be
// normalized. Entries with zero weight are never sampled.
func NewAlias(weights []float64) (*Alias, error) {
	return NewAliasOver(weights, nil)
}

// NewAliasOver builds an alias table that draws outcomes[i] with
// probability proportional to weights[i], consuming the generator exactly
// as NewAlias(weights) does. A nil outcomes draws i itself.
func NewAliasOver(weights []float64, outcomes []int32) (*Alias, error) {
	if outcomes != nil && len(outcomes) != len(weights) {
		return nil, fmt.Errorf("%w: %d outcomes for %d weights", ErrBadWeights, len(outcomes), len(weights))
	}
	n := len(weights)
	if n == 0 {
		return nil, ErrBadWeights
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: weights[%d] = %v", ErrBadWeights, i, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, ErrBadWeights
	}

	a := &Alias{slots: make([]aliasSlot, n)}
	// Scaled probabilities; split into under- and over-full buckets.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.slots[s] = aliasSlot{aliasThreshold(scaled[s]), s, l}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Remaining buckets are (numerically) exactly full.
	for _, l := range large {
		a.slots[l] = aliasSlot{aliasThreshold(1), l, l}
	}
	for _, s := range small {
		a.slots[s] = aliasSlot{aliasThreshold(1), s, s}
	}
	if outcomes != nil {
		for i := range a.slots {
			a.slots[i].self, a.slots[i].alias = outcomes[a.slots[i].self], outcomes[a.slots[i].alias]
		}
	}
	return a, nil
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.slots) }

// Sample draws one index from the table's distribution using r.
func (a *Alias) Sample(r *RNG) int32 {
	s := &a.slots[r.Intn(len(a.slots))]
	if r.Uint64()>>11 < s.threshold {
		return s.self
	}
	return s.alias
}

// UnigramWeights returns the unnormalized weights of the unigram
// distribution: counts raised to power. Outcomes with zero count still
// receive a tiny floor weight so that every node can appear as a negative
// sample — without the floor, nodes never observed as context would keep
// their random initializations forever.
func UnigramWeights(counts []int64, power float64) ([]float64, error) {
	if len(counts) == 0 {
		return nil, ErrBadWeights
	}
	w := make([]float64, len(counts))
	var total float64
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("%w: counts[%d] = %d", ErrBadWeights, i, c)
		}
		w[i] = math.Pow(float64(c), power)
		total += w[i]
	}
	if total == 0 {
		// All-zero counts: fall back to uniform.
		for i := range w {
			w[i] = 1
		}
	} else {
		floor := total / float64(len(counts)) * 1e-3
		for i := range w {
			if w[i] < floor {
				w[i] = floor
			}
		}
	}
	return w, nil
}
