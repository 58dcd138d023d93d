package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},      // minimum
		{0.1, 1},    // ceil(1.0) = rank 1
		{0.11, 2},   // ceil(1.1) = rank 2
		{0.5, 5},    // ceil(5.0) = rank 5, no interpolation
		{0.55, 6},   // ceil(5.5) = rank 6
		{0.99, 10},  // ceil(9.9) = rank 10
		{1, 10},     // maximum
		{1.5, 10},   // clamped
		{-0.2, 1},   // clamped
		{0.901, 10}, // ceil(9.01) = rank 10
	}
	for _, c := range cases {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Fatalf("quantile sorted its receiver in place: %v", s)
	}
}

func TestQuantileSingleSampleAndMedian(t *testing.T) {
	if got := (samples{42}).quantile(0.99); got != 42 {
		t.Fatalf("single sample p99 = %v", got)
	}
	// An even count takes the lower middle sample, not the mean of the two.
	if got := (samples{1, 2, 3, 100}).median(); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

func TestQuantileIgnoresBucketInterpolation(t *testing.T) {
	// 99 fast samples and one 30x outlier: p99 must be a real sample (the
	// fast value), p100 the outlier itself; nothing between them is made up.
	s := make(samples, 0, 100)
	for i := 0; i < 99; i++ {
		s = append(s, 0.003)
	}
	s = append(s, 0.09)
	if got := s.quantile(0.99); got != 0.003 {
		t.Fatalf("p99 = %v, want 0.003", got)
	}
	if got := s.quantile(1); got != 0.09 {
		t.Fatalf("max = %v, want 0.09", got)
	}
}

func TestSupports(t *testing.T) {
	if (samples(make([]float64, 999))).supports(0.99) {
		t.Fatal("999 samples leave only 9 above p99")
	}
	if !(samples(make([]float64, 1000))).supports(0.99) {
		t.Fatal("1000 samples leave 10 above p99")
	}
	if !(samples(make([]float64, 20))).supports(0.5) {
		t.Fatal("20 samples leave 10 above p50")
	}
}

func TestResidual(t *testing.T) {
	if got := residual(10, 2, 3, 4); got != 1 {
		t.Fatalf("residual = %v, want 1", got)
	}
	if got := residual(5); got != 5 {
		t.Fatalf("residual without parts = %v", got)
	}
	// Overlapping layers must show as a negative residual, not be clamped.
	if got := residual(5, 4, 3); got != -2 {
		t.Fatalf("residual = %v, want -2", got)
	}
}

func TestReportCountsFailures(t *testing.T) {
	var r report
	r.attempt(nil)
	r.attempt(errors.New("bad status"))
	r.fail(errors.New("check failed"))
	r.addQuantile("empty_ms", "ms", nil, 0.5)
	if r.attempted != 2 || r.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 3", r.attempted, r.failed)
	}
	if len(r.metrics) != 0 {
		t.Fatalf("a metric with no samples was reported: %+v", r.metrics)
	}
}

func TestSelfTime(t *testing.T) {
	// parent [0,10] with children [1,3] and [2,6] (overlapping) and [8,9]:
	// covered = [1,6] ∪ [8,9] = 6, self = 4. The grandchild [2,3] does not
	// reduce the parent's self time.
	tr := newTracer(true)
	p := tr.record("parent", 0, 0, 10)
	tr.record("child", p, 1, 3)
	c2 := tr.record("child", p, 2, 6)
	tr.record("grandchild", c2, 2, 3)
	tr.record("child", p, 8, 9)
	self := tr.selfTimes()
	if got := self["parent"]; got != 4 {
		t.Fatalf("parent self = %v, want 4", got)
	}
	if got := self["child"]; got != 2+3+1 {
		t.Fatalf("child self = %v, want 6", got)
	}
	if got := self["grandchild"]; got != 1 {
		t.Fatalf("grandchild self = %v, want 1", got)
	}
}

func TestSpanStats(t *testing.T) {
	// Two epochs of 400 items under one call span; the call's self time is
	// what its children leave uncovered.
	tr := newTracer(true)
	call := tr.record("call", 0, 0, 10*time.Second)
	tr.recordWork("epoch", call, 1*time.Second, 3*time.Second, 400)
	tr.recordWork("epoch", call, 3*time.Second, 7*time.Second, 400)
	tr.record("call", 0, 20*time.Second, 21*time.Second)
	calls := tr.stats("call", seconds)
	if want := (samples{10, 1}); !equalSamples(calls.length, want) {
		t.Fatalf("call lengths = %v, want %v", calls.length, want)
	}
	if want := (samples{4, 1}); !equalSamples(calls.self, want) {
		t.Fatalf("call self times = %v, want %v", calls.self, want)
	}
	if len(calls.rate) != 0 {
		t.Fatalf("spans without a count gave rates %v", calls.rate)
	}
	epochs := tr.stats("epoch", millis)
	if want := (samples{2000, 4000}); !equalSamples(epochs.length, want) {
		t.Fatalf("epoch lengths = %v, want %v", epochs.length, want)
	}
	if want := (samples{200, 100}); !equalSamples(epochs.rate, want) {
		t.Fatalf("epoch rates = %v, want %v", epochs.rate, want)
	}
	if got := tr.stats("missing", seconds); len(got.length) != 0 {
		t.Fatalf("stats of an unrecorded name = %+v", got)
	}
}

func TestABBAOverheadCancelsLinearGrowth(t *testing.T) {
	traced := make([]bool, 8)
	for i := range traced {
		traced[i] = abbaTraced(i)
	}
	want := []bool{true, false, false, true, true, false, false, true}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("abbaTraced order = %v, want %v", traced, want)
		}
	}
	// Units that grow by 1 each and cost 10% more when traced: the growth
	// cancels within each block and the overhead reads exactly 0.1. The
	// incomplete last block is dropped.
	var vals []float64
	for i := 0; i < 10; i++ {
		v := 100 + float64(i)
		if abbaTraced(i) {
			v *= 1.1
		}
		vals = append(vals, v)
	}
	got := abbaOverheads(vals)
	if len(got) != 2 {
		t.Fatalf("%d blocks, want 2", len(got))
	}
	for _, g := range got {
		if math.Abs(g-0.1) > 1e-12 {
			t.Fatalf("overheads = %v, want 0.1 each", got)
		}
	}
	// Without tracing cost, growth alone reads as no overhead.
	if got := abbaOverheads([]float64{1, 2, 3, 4}); got[0] != 0 {
		t.Fatalf("pure growth read as overhead %v", got[0])
	}
}

func equalSamples(a, b samples) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
