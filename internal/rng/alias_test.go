package rng

import (
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAliasRejectsBadWeights(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{1, -1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, w := range cases {
		if _, err := NewAlias(w); !errors.Is(err, ErrBadWeights) {
			t.Errorf("NewAlias(%v): err = %v, want ErrBadWeights", w, err)
		}
	}
}

func TestAliasMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 0, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(31)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d: frequency %v, want %v", i, got, want)
		}
	}
	if counts[3] != 0 {
		t.Errorf("zero-weight outcome sampled %d times", counts[3])
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 100; i++ {
		if got := a.Sample(r); got != 0 {
			t.Fatalf("Sample = %d, want 0", got)
		}
	}
}

// Property: for any positive weight vector, all samples land in range and
// strictly-zero weights are never drawn.
func TestAliasSampleInRange(t *testing.T) {
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		var sum float64
		for i, v := range raw {
			w[i] = float64(v)
			sum += w[i]
		}
		if sum == 0 {
			return true
		}
		a, err := NewAlias(w)
		if err != nil {
			return false
		}
		r := New(seed)
		for i := 0; i < 100; i++ {
			idx := a.Sample(r)
			if idx < 0 || int(idx) >= len(w) || w[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAliasSamplePinned pins Sample's draws, recorded before the table held
// integer thresholds (when each draw tested Float64() < prob[i]): the first
// 16 draws and an FNV-1a hash of 200,000, for five tables and three seeds.
// The tables include zero weights, a denormal, 1e-300 and 1e-17, whose
// buckets keep their outcome only for the smallest draws, and a 1000-entry
// Pareto table.
func TestAliasSamplePinned(t *testing.T) {
	pareto := make([]float64, 1000)
	pr := New(99)
	for i := range pareto {
		pareto[i] = pr.Pareto(1, 1.5)
	}
	tables := map[string][]float64{
		"mixed":   {1, 2, 3, 0, 4},
		"tiny":    {math.SmallestNonzeroFloat64, 1, 1e-300, 0, 2, 1e-17},
		"uniform": {1, 1, 1, 1, 1, 1, 1},
		"single":  {5},
		"pareto":  pareto,
	}
	for _, tc := range []struct {
		table string
		seed  uint64
		first []int32
		hash  uint64
	}{
		{"mixed", 1, []int32{4, 2, 4, 0, 2, 2, 2, 2, 0, 0, 2, 4, 2, 1, 4, 4}, 0x54d6b27c2a6bb463},
		{"mixed", 7, []int32{4, 2, 2, 0, 2, 2, 2, 2, 1, 0, 4, 4, 4, 4, 0, 0}, 0xdb762e68ad7ebe76},
		{"mixed", 12345, []int32{4, 4, 2, 0, 1, 4, 2, 4, 2, 2, 0, 0, 0, 4, 4, 2}, 0x6ebeeb9b98315730},
		{"tiny", 1, []int32{1, 4, 1, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 1, 4}, 0x670a7aaa7de1bd60},
		{"tiny", 7, []int32{1, 4, 4, 4, 4, 4, 4, 4, 1, 4, 1, 1, 1, 4, 1, 4}, 0xf82ff94e054c94c0},
		{"tiny", 12345, []int32{1, 4, 4, 4, 4, 1, 4, 4, 4, 4, 4, 4, 4, 4, 1, 4}, 0xca365d3635b9c485},
		{"uniform", 1, []int32{4, 4, 4, 0, 6, 6, 6, 4, 0, 0, 3, 4, 2, 2, 5, 0}, 0x6763299d060c4942},
		{"uniform", 7, []int32{4, 5, 6, 0, 2, 3, 6, 3, 1, 1, 1, 4, 5, 0, 1, 0}, 0x18cab0113eb83fa1},
		{"uniform", 12345, []int32{5, 6, 3, 1, 2, 5, 5, 0, 3, 3, 0, 0, 0, 0, 4, 6}, 0x94979e6151102554},
		{"single", 1, []int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xe3dbd3f783edc725},
		{"single", 7, []int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xe3dbd3f783edc725},
		{"single", 12345, []int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xe3dbd3f783edc725},
		{"pareto", 1, []int32{685, 574, 697, 71, 838, 878, 878, 597, 49, 45, 377, 610, 404, 377, 785, 31}, 0xf8af1e9eab79f5f6},
		{"pareto", 7, []int32{700, 828, 989, 60, 403, 540, 938, 377, 256, 156, 129, 667, 749, 31, 175, 87}, 0x6ee37ca43bf50cb8},
		{"pareto", 12345, []int32{743, 963, 555, 159, 377, 826, 828, 106, 377, 540, 91, 131, 20, 31, 686, 838}, 0xcd742947835c97b5},
	} {
		a, err := NewAlias(tables[tc.table])
		if err != nil {
			t.Fatal(err)
		}
		r := New(tc.seed)
		h := fnv.New64a()
		var first []int32
		for i := 0; i < 200000; i++ {
			d := a.Sample(r)
			if i < len(tc.first) {
				first = append(first, d)
			}
			h.Write([]byte{byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)})
		}
		if !slices.Equal(first, tc.first) || h.Sum64() != tc.hash {
			t.Errorf("%s seed %d: first draws %v, hash %#x; pinned %v, %#x", tc.table, tc.seed, first, h.Sum64(), tc.first, tc.hash)
		}
	}
}

// TestAliasThresholdDecidesLikeFloat64 checks the integer test against the
// float64 one it replaced, (Uint64()>>11)/2^53 < prob, at every draw next
// to each threshold and at the ends of the draw range, for probabilities
// that are 0, denormal, tiny, exact multiples of 2^-53 and just beside them.
func TestAliasThresholdDecidesLikeFloat64(t *testing.T) {
	probs := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-17, 0x1p-53, 0.25, 1.0 / 3, 0.5, 0.7, 1 - 0x1p-53, 1}
	r := New(5)
	for i := 0; i < 1000; i++ {
		probs = append(probs, r.Float64(), float64(r.Uint64()>>11)*0x1p-53)
	}
	for _, p := range probs {
		for _, q := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, 1)} {
			th := aliasThreshold(q)
			for _, m := range []uint64{0, 1, th - 1, th, th + 1, 1<<53 - 1} {
				if m >= 1<<53 {
					continue
				}
				want := float64(m)*(1.0/(1<<53)) < q
				if got := m < th; got != want {
					t.Errorf("prob %v (threshold %d), draw %d: integer test %v, float64 test %v", q, th, m, got, want)
				}
			}
		}
	}
}

func TestUnigramWeightsPower(t *testing.T) {
	// With power 0.75 the ratio should be 16^0.75 : 1 = 8 : 1.
	w, err := UnigramWeights([]int64{1, 16}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got := w[1] / w[0]; math.Abs(got-8) > 1e-12 {
		t.Errorf("unigram^0.75 ratio = %v, want 8", got)
	}
}

func TestUnigramWeightsUniformPower(t *testing.T) {
	w, err := UnigramWeights([]int64{100, 1, 50, 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if x != 1 {
			t.Errorf("power=0 weight %d = %v, want 1", i, x)
		}
	}
}

func TestUnigramWeightsZeroCountsGetFloor(t *testing.T) {
	w, err := UnigramWeights([]int64{0, 1000, 0}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	floor := math.Pow(1000, 0.75) / 3 * 1e-3
	for _, i := range []int{0, 2} {
		if w[i] != floor {
			t.Errorf("zero-count weight %d = %v, want the floor %v", i, w[i], floor)
		}
	}
	if w[1] <= floor {
		t.Errorf("observed weight %v not above the floor %v", w[1], floor)
	}
}

func TestUnigramWeightsAllZero(t *testing.T) {
	w, err := UnigramWeights([]int64{0, 0, 0}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if x != 1 {
			t.Errorf("all-zero counts should be uniform; weight %d = %v", i, x)
		}
	}
}

func TestUnigramWeightsRejectsNegative(t *testing.T) {
	if _, err := UnigramWeights([]int64{1, -2}, 0.75); !errors.Is(err, ErrBadWeights) {
		t.Errorf("err = %v, want ErrBadWeights", err)
	}
	if _, err := UnigramWeights(nil, 0.75); !errors.Is(err, ErrBadWeights) {
		t.Errorf("err = %v, want ErrBadWeights", err)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	w := make([]float64, 100000)
	r := New(1)
	for i := range w {
		w[i] = r.Float64()
	}
	a, err := NewAlias(w)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Sample(r)
	}
}
