package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of raw per-operation measurements. Every percentile the
// benchmark reports is read from one of these by nearest rank, never from
// histogram buckets, and is printed with the count it was read from.
type samples []float64

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample such that at least q·n samples are <= it. q <= 0 returns the
// minimum. It panics on an empty set; callers check len first.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		panic("perfbench: quantile of no samples")
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the nearest-rank 0.5-quantile.
func (s samples) median() float64 { return s.quantile(0.5) }

// supports reports whether the set has at least ten samples above its
// nearest-rank q-quantile, the rule for which tail percentiles may be
// reported.
func (s samples) supports(q float64) bool {
	return len(s)-int(math.Ceil(q*float64(len(s)))) >= 10
}

// residual is the part of total that the listed layer times do not account
// for: total − Σ parts. It is reported as measured, negative included, so a
// layer split that double-counts shows up instead of being clamped away.
func residual(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	return total
}

// abbaTraced reports whether unit i of a traced run is traced: traced and
// untraced units alternate in ABBA blocks (traced, untraced, untraced,
// traced), so work that grows steadily through a run weighs the same on
// both sides of each block.
func abbaTraced(i int) bool { return i%4 == 0 || i%4 == 3 }

// abbaOverheads returns, for each complete ABBA block of vals (one value per
// unit, in run order), the traced units' sum over the untraced units' sum,
// minus one.
func abbaOverheads(vals []float64) samples {
	var out samples
	for b := 0; b+4 <= len(vals); b += 4 {
		v := vals[b : b+4]
		out = append(out, (v[0]+v[3])/(v[1]+v[2])-1)
	}
	return out
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seconds, millis and micros convert a duration to the float units the
// metrics are reported in.
func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// metric is one reported number. N is the count of raw samples the value
// was read from (1 for a single measurement).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects one run's metrics and outcome counts.
type report struct {
	workload  string
	attempted int
	failed    int
	failures  []string // first few failure messages, for the text report
	metrics   []metric
	notes     []string
}

// add records a metric read from n samples.
func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// addQuantile records the nearest-rank q-quantile of s. An empty set is a
// failed run, not a zero: it is counted as a failure and the metric is
// omitted.
func (r *report) addQuantile(name, unit string, s samples, q float64) {
	if len(s) == 0 {
		r.fail(fmt.Errorf("%s: no samples", name))
		return
	}
	r.add(name, unit, s.quantile(q), len(s))
}

// attempt counts one attempted operation and, when err is non-nil, one
// failed operation.
func (r *report) attempt(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts one failure without an attempt of its own (a failed output
// check on an operation already counted).
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// note adds a line to the text report.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
