package serve

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"inf2vec/internal/benchgate"
	"inf2vec/internal/obs"
)

// scoreLats drives n /v1/score requests straight through the handler chain
// (no TCP, so the measurement isolates the server's own work) and appends
// each request's latency to lat.
func scoreLats(t *testing.T, s *Server, n int, lat []time.Duration) []time.Duration {
	t.Helper()
	h := s.Handler()
	for i := 0; i < n; i++ {
		req := httptest.NewRequest("GET", "/v1/score?source=1&target=2", nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, time.Since(t0))
		if rec.Code != http.StatusOK {
			t.Fatalf("score status %d", rec.Code)
		}
	}
	return lat
}

func p50(lat []time.Duration) time.Duration {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2]
}

// TestRecordServeBench measures the tracer's overhead on the /v1/score hot
// path: p50 over the full middleware+handler chain with tracing disabled vs
// enabled at production defaults (tail-based slow capture plus 1% sampling).
// When INF2VEC_WRITE_BENCH is set it records BENCH_serve.json and enforces
// the <5% overhead acceptance bound.
func TestRecordServeBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench recording skipped in -short mode")
	}
	const warmup, rounds, perRound = 1500, 8, 1500
	runs := rounds * perRound

	off := newTestServer(t, func(c *Config) { c.Trace.Disabled = true })
	on := newTestServer(t, func(c *Config) { c.Trace.SampleRate = 0.01 })

	// Alternate short off/on batches so CPU-frequency and GC drift over the
	// measurement window lands on both sides equally. The verdict is the
	// median of the per-round overheads — a single descheduled or GC-heavy
	// round cannot swing it — while the recorded p50s pool every batch.
	scoreLats(t, off, warmup, nil)
	scoreLats(t, on, warmup, nil)
	latOff := make([]time.Duration, 0, runs)
	latOn := make([]time.Duration, 0, runs)
	overheads := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		roundOff := scoreLats(t, off, perRound, nil)
		roundOn := scoreLats(t, on, perRound, nil)
		latOff = append(latOff, roundOff...)
		latOn = append(latOn, roundOn...)
		o, f := p50(roundOn).Seconds(), p50(roundOff).Seconds()
		overheads = append(overheads, 100*(o-f)/f)
	}
	p50Off, p50On := p50(latOff), p50(latOn)

	sort.Float64s(overheads)
	overheadPct := overheads[len(overheads)/2]
	report := map[string]any{
		"benchmark":            "serve_score_tracing_overhead",
		"requests_per_side":    runs,
		"score_p50_untraced_s": p50Off.Seconds(),
		"score_p50_traced_s":   p50On.Seconds(),
		"overhead_pct":         overheadPct,
		"trace_sample_rate":    0.01,
		"go_test_generated_by": "internal/serve.TestRecordServeBench (INF2VEC_WRITE_BENCH=1)",
	}
	if benchgate.Recording() && overheadPct >= 5 {
		t.Fatalf("tracing overhead on /v1/score p50 = %.2f%% (%v -> %v), acceptance bound is <5%%",
			overheadPct, p50Off, p50On)
	}
	benchgate.Record(t, "BENCH_serve.json", report)
}

// TestMetricsExemplarsExposition asserts the OpenMetrics exemplar flag on
// /metrics: plain scrapes stay Prometheus-text clean, ?exemplars=1 appends
// the trace-ID exemplar to latency bucket lines.
func TestMetricsExemplarsExposition(t *testing.T) {
	s := newTestServer(t, keepAllTraces)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/score?source=1&target=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tid, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatal("no traceparent on the scored request")
	}

	if _, plain := getText(t, ts.Client(), ts.URL+"/metrics"); strings.Contains(plain, `# {trace_id="`) {
		t.Fatal("plain /metrics scrape leaked exemplar syntax")
	}
	_, withEx := getText(t, ts.Client(), ts.URL+"/metrics?exemplars=1")
	if want := `# {trace_id="` + tid.TraceID.String() + `"}`; !strings.Contains(withEx, want) {
		t.Fatalf("/metrics?exemplars=1 is missing the exemplar %q", want)
	}
}
