package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws out of 64", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	if child == parent {
		t.Fatal("Split returned the parent")
	}
	// The child stream should not replicate the parent stream.
	p, c := New(7), child
	same := 0
	for i := 0; i < 64; i++ {
		if p.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 4 {
		t.Fatalf("child stream tracks parent: %d/64 matches", same)
	}
}

func TestKeyedDeterministic(t *testing.T) {
	a, b := Keyed(42, 7), Keyed(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same (seed, key) diverged at draw %d", i)
		}
	}
}

func TestKeyedIndependence(t *testing.T) {
	// Streams for distinct keys under one seed, distinct seeds under one key,
	// and key 0 versus the plain seeded stream must all decorrelate.
	pairs := [][2]*RNG{
		{Keyed(42, 0), Keyed(42, 1)},
		{Keyed(42, 1), Keyed(42, 2)},
		{Keyed(1, 5), Keyed(2, 5)},
		{Keyed(42, 0), New(42)},
	}
	for pi, p := range pairs {
		same := 0
		for i := 0; i < 64; i++ {
			if p[0].Uint64() == p[1].Uint64() {
				same++
			}
		}
		if same > 0 {
			t.Errorf("pair %d: %d/64 identical draws between supposedly independent streams", pi, same)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestIntnPinned pins Intn's draws for one seed, from a single-word n to
// n = 2^62, where the high word of the 128-bit product carries every bit.
// The values were recorded from the hand-rolled 128-bit multiply that
// bits.Mul64 replaced.
func TestIntnPinned(t *testing.T) {
	r := New(2024)
	for _, c := range []struct {
		n    uint64
		want [4]uint64
	}{
		{1, [4]uint64{0, 0, 0, 0}},
		{3, [4]uint64{2, 0, 1, 0}},
		{2000, [4]uint64{1113, 101, 1440, 1863}},
		{1 << 31, [4]uint64{1894074754, 786676512, 1660884459, 407820682}},
		{1 << 62, [4]uint64{197625205812632386, 3010173135487613113, 3735713747876407562, 1853542296215245832}},
	} {
		if c.n > math.MaxInt {
			t.Skipf("n = %d does not fit in int", c.n)
		}
		for i, want := range c.want {
			if got := r.Intn(int(c.n)); uint64(got) != want {
				t.Errorf("Intn(%d) draw %d = %d, want %d", c.n, i, got, want)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if v := r.Float32(); v < 0 || v >= 1 {
			t.Fatalf("Float32 = %v out of [0,1)", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const draws = 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	f := func(seed uint64, raw []int) bool {
		r := New(seed)
		cp := append([]int(nil), raw...)
		r.ShuffleInts(cp)
		counts := map[int]int{}
		for _, v := range raw {
			counts[v]++
		}
		for _, v := range cp {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestParetoTail(t *testing.T) {
	r := New(23)
	const draws = 50000
	exceed := 0
	for i := 0; i < draws; i++ {
		v := r.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("Pareto(1,2) = %v below xm", v)
		}
		if v > 10 {
			exceed++
		}
	}
	// P(X > 10) = (1/10)^2 = 0.01 for Pareto(1, 2).
	got := float64(exceed) / draws
	if math.Abs(got-0.01) > 0.005 {
		t.Errorf("tail mass P(X>10) = %v, want ~0.01", got)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	st := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}

	r2 := New(0)
	r2.SetState(st)
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("restored stream diverged at draw %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSetStateRejectsAllZero(t *testing.T) {
	r := New(1)
	r.SetState([4]uint64{})
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("all-zero state produced the degenerate constant-zero stream")
	}
}
