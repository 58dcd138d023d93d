package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	hdr := FormatTraceparent(tid, sid)
	tp, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent rejected its own output %q", hdr)
	}
	if tp.TraceID != tid || tp.SpanID != sid {
		t.Fatalf("round trip mangled IDs: got %s/%s want %s/%s", tp.TraceID, tp.SpanID, tid, sid)
	}
	if tp.Flags != 0x01 {
		t.Fatalf("flags = %#x, want 0x01", tp.Flags)
	}
}

func TestParseTraceparentValid(t *testing.T) {
	const hdr = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	tp, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("rejected valid header %q", hdr)
	}
	if got := tp.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace ID = %s", got)
	}
	if got := tp.SpanID.String(); got != "b7ad6b7169203331" {
		t.Errorf("span ID = %s", got)
	}
	// Unknown future version with trailing fields: accepted per the spec.
	if _, ok := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Error("future version with extra field rejected")
	}
}

func TestParseTraceparentGarbage(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",     // missing flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-",    // empty flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x",  // non-hex flags
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // forbidden version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",  // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",  // zero span ID
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",  // uppercase hex
		"00-0af7651916cd43dd8448eb211c80319-b7ad6b7169203331-01",   // short trace ID
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",   // short span ID
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011", // version 00 with trailing junk
		"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // non-hex version
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",  // wrong separator
	}
	for _, hdr := range bad {
		if _, ok := ParseTraceparent(hdr); ok {
			t.Errorf("accepted invalid traceparent %q", hdr)
		}
	}
}

// keepAllTracer keeps every trace so tests can inspect the ring.
func keepAllTracer(ring int) *Tracer {
	return NewTracer(TracerConfig{SampleRate: 1, RingSize: ring, SlowThreshold: -1})
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := keepAllTracer(8)
	ctx, root := tr.StartRoot(context.Background(), "round")
	root.SetAttr("round", 3)

	ctx1, child := StartSpan(ctx, "train")
	child.SetAttr("epoch", 1)
	child.Event("checkpoint", map[string]any{"path": "x.ckpt"})
	_, grand := StartSpan(ctx1, "epoch")
	grand.SetStatus("canceled")
	grand.End()
	child.End()
	if got := tr.OpenSpans(); got != 1 {
		t.Fatalf("open spans before root end = %d, want 1", got)
	}
	root.End()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("open spans after root end = %d, want 0", got)
	}

	traces := tr.Traces(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	rec := traces[0]
	if rec.Root != "round" || len(rec.Spans) != 3 {
		t.Fatalf("unexpected record: root=%q spans=%d", rec.Root, len(rec.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	if byName["train"].ParentID != byName["round"].SpanID {
		t.Errorf("train's parent = %q, want root %q", byName["train"].ParentID, byName["round"].SpanID)
	}
	if byName["epoch"].ParentID != byName["train"].SpanID {
		t.Errorf("epoch's parent = %q, want train %q", byName["epoch"].ParentID, byName["train"].SpanID)
	}
	if byName["epoch"].Status != "canceled" {
		t.Errorf("epoch status = %q", byName["epoch"].Status)
	}
	if len(byName["train"].Events) != 1 || byName["train"].Events[0].Name != "checkpoint" {
		t.Errorf("train events = %+v", byName["train"].Events)
	}
	if byName["round"].Attrs["round"] != float64(3) && byName["round"].Attrs["round"] != 3 {
		// Attrs survive as stored (int) until JSON round-trips them.
		t.Errorf("root attrs = %+v", byName["round"].Attrs)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	tr := keepAllTracer(3)
	for i := 0; i < 5; i++ {
		_, root := tr.StartRoot(context.Background(), fmt.Sprintf("t%d", i))
		root.End()
	}
	traces := tr.Traces(TraceFilter{})
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want ring size 3", len(traces))
	}
	// Newest first; the two oldest (t0, t1) were evicted.
	want := []string{"t4", "t3", "t2"}
	for i, rec := range traces {
		if rec.Root != want[i] {
			t.Errorf("traces[%d].Root = %q, want %q", i, rec.Root, want[i])
		}
	}
}

func TestTailSamplingSlowAlwaysKept(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: time.Nanosecond, SampleRate: 0, RingSize: 4})
	_, root := tr.StartRoot(context.Background(), "slow")
	time.Sleep(time.Millisecond)
	root.End()
	traces := tr.Traces(TraceFilter{})
	if len(traces) != 1 || traces[0].Kept != "slow" {
		t.Fatalf("slow trace not kept: %+v", traces)
	}

	// With slow-keeping disabled and rate 0, nothing survives.
	tr2 := NewTracer(TracerConfig{SlowThreshold: -1, SampleRate: 0, RingSize: 4})
	_, root2 := tr2.StartRoot(context.Background(), "fast")
	root2.End()
	if got := tr2.Traces(TraceFilter{}); len(got) != 0 {
		t.Fatalf("unsampled fast trace kept: %+v", got)
	}
	st := tr2.Stats()
	if st.Dropped != 1 || st.Started != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSamplingIsDeterministicInTraceID(t *testing.T) {
	id := NewTraceID()
	for _, rate := range []float64{0, 0.25, 0.5, 1} {
		a := sampleTrace(id, rate)
		b := sampleTrace(id, rate)
		if a != b {
			t.Fatalf("sampleTrace not deterministic at rate %v", rate)
		}
	}
	if sampleTrace(id, 0) {
		t.Error("rate 0 sampled")
	}
	if !sampleTrace(id, 1) {
		t.Error("rate 1 not sampled")
	}
	// At rate 0.5 roughly half of random IDs sample; sanity-check the
	// estimator is neither all-keep nor all-drop.
	kept := 0
	for i := 0; i < 200; i++ {
		if sampleTrace(NewTraceID(), 0.5) {
			kept++
		}
	}
	if kept < 50 || kept > 150 {
		t.Errorf("rate 0.5 kept %d/200, far from half", kept)
	}
}

func TestNilAndDisabledTracerAreInert(t *testing.T) {
	var nilTracer *Tracer
	ctx, s := nilTracer.StartRoot(context.Background(), "x")
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	if _, c := StartSpan(ctx, "child"); c != nil {
		t.Fatal("child span materialized without a trace")
	}
	// All span methods are nil-safe.
	s.SetAttr("k", 1)
	s.SetStatus("error")
	s.Event("e", nil)
	s.End()
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if !s.TraceID().IsZero() || !s.ID().IsZero() {
		t.Fatal("nil span has IDs")
	}
	if nilTracer.OpenSpans() != 0 || nilTracer.Traces(TraceFilter{}) != nil {
		t.Fatal("nil tracer retained state")
	}

	dis := NewTracer(TracerConfig{Disabled: true})
	if dis.Enabled() {
		t.Fatal("disabled tracer claims enabled")
	}
	_, ds := dis.StartRoot(context.Background(), "y")
	if ds != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if !dis.Stats().Disabled {
		t.Fatal("disabled stats flag unset")
	}
}

func TestConcurrentTracerWrites(t *testing.T) {
	tr := keepAllTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, root := tr.StartRoot(context.Background(), "load")
				var inner sync.WaitGroup
				for c := 0; c < 4; c++ {
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						_, sp := StartSpan(ctx, "child")
						sp.SetAttr("c", c)
						sp.Event("tick", nil)
						sp.End()
					}(c)
				}
				inner.Wait()
				root.SetAttr("g", g)
				root.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("open spans after concurrent load = %d", got)
	}
	st := tr.Stats()
	if st.Started != 400 || st.Kept != 400 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(tr.Traces(TraceFilter{})); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

func TestTraceBoundsSpansAndEvents(t *testing.T) {
	tr := keepAllTracer(2)
	ctx, root := tr.StartRoot(context.Background(), "big")
	_, noisy := StartSpan(ctx, "noisy")
	for i := 0; i < maxEventsPerSpan+5; i++ {
		noisy.Event("e", nil)
	}
	noisy.End()
	for i := 0; i < maxSpansPerTrace+9; i++ {
		_, sp := StartSpan(ctx, "leaf")
		sp.End()
	}
	root.SetStatus("partial")
	root.End()
	rec := tr.Traces(TraceFilter{})[0]
	if len(rec.Spans) != maxSpansPerTrace {
		t.Fatalf("retained %d spans, want cap %d", len(rec.Spans), maxSpansPerTrace)
	}
	if rec.DroppedSpans != 11 { // 10 extra leaves + the root itself arrived after the cap
		t.Fatalf("dropped spans = %d, want 11", rec.DroppedSpans)
	}
	if rec.Status != "partial" {
		t.Fatalf("root status lost when root span dropped: %q", rec.Status)
	}
	if rec.Spans[0].Name != "noisy" || rec.Spans[0].DroppedEvents != 5 || len(rec.Spans[0].Events) != maxEventsPerSpan {
		t.Fatalf("event cap not enforced: name=%q dropped=%d events=%d",
			rec.Spans[0].Name, rec.Spans[0].DroppedEvents, len(rec.Spans[0].Events))
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("open spans = %d", tr.OpenSpans())
	}
}

func TestSpanEndIdempotentAndLateMutationIgnored(t *testing.T) {
	tr := keepAllTracer(2)
	_, root := tr.StartRoot(context.Background(), "once")
	root.End()
	d := root.Duration()
	root.SetAttr("late", true)
	root.SetStatus("error")
	root.Event("late", nil)
	root.End() // idempotent
	if tr.OpenSpans() != 0 {
		t.Fatalf("double End corrupted open count: %d", tr.OpenSpans())
	}
	if root.Duration() != d {
		t.Fatal("second End changed duration")
	}
	traces := tr.Traces(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("retained %d traces", len(traces))
	}
	rec := traces[0]
	if rec.Status != "" || rec.Spans[0].Attrs["late"] != nil {
		t.Fatalf("post-End mutation leaked into record: %+v", rec.Spans[0])
	}
}

func TestTracesHandlerFilters(t *testing.T) {
	tr := keepAllTracer(16)
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), "/v1/score")
		root.End()
	}
	_, slowRoot := tr.StartRoot(context.Background(), "/v1/seeds")
	time.Sleep(2 * time.Millisecond)
	slowRoot.End()

	get := func(url string) tracesResponse {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rw := httptest.NewRecorder()
		tr.TracesHandler().ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, rw.Code, rw.Body)
		}
		var resp tracesResponse
		if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON from %s: %v", url, err)
		}
		return resp
	}

	if resp := get("/debug/traces"); len(resp.Traces) != 4 || resp.Stats.Kept != 4 {
		t.Fatalf("unfiltered: %d traces, stats %+v", len(resp.Traces), resp.Stats)
	}
	if resp := get("/debug/traces?root=/v1/seeds"); len(resp.Traces) != 1 || resp.Traces[0].Root != "/v1/seeds" {
		t.Fatalf("root filter failed: %+v", resp.Traces)
	}
	if resp := get("/debug/traces?route=/v1/score&limit=2"); len(resp.Traces) != 2 {
		t.Fatalf("route+limit filter failed: %d", len(resp.Traces))
	}
	if resp := get("/debug/traces?min_ms=1"); len(resp.Traces) != 1 || resp.Traces[0].Root != "/v1/seeds" {
		t.Fatalf("min_ms filter failed: %+v", resp.Traces)
	}
	id := get("/debug/traces?root=/v1/seeds").Traces[0].TraceID
	if resp := get("/debug/traces?trace_id=" + id); len(resp.Traces) != 1 || resp.Traces[0].TraceID != id {
		t.Fatalf("trace_id filter failed: %+v", resp.Traces)
	}

	for _, bad := range []string{"/debug/traces?min_ms=potato", "/debug/traces?min_ms=-1", "/debug/traces?limit=x"} {
		req := httptest.NewRequest(http.MethodGet, bad, nil)
		rw := httptest.NewRecorder()
		tr.TracesHandler().ServeHTTP(rw, req)
		if rw.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", bad, rw.Code)
		}
	}
}

func TestTraceSinkReceivesKeptTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces.jsonl")
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(TracerConfig{SampleRate: 1, SlowThreshold: -1, RingSize: 4, Sink: sink})
	ctx, root := tr.StartRoot(context.Background(), "sinked")
	_, c := StartSpan(ctx, "child")
	c.End()
	root.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	line := strings.TrimSpace(string(raw))
	if line == "" {
		t.Fatal("sink received nothing")
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if rec.Root != "sinked" || len(rec.Spans) != 2 || rec.TraceID == "" {
		t.Fatalf("sink record = %+v", rec)
	}
}

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	hv := reg.Histogram("lat_seconds", "Latency.", []float64{0.1, 1}, "route")
	h := hv.With("/v1/score")
	h.ObserveExemplar(0.05, "aaaa")
	h.ObserveExemplar(0.5, "bbbb")
	h.ObserveExemplar(0.06, "cccc") // replaces aaaa in the first bucket
	h.Observe(0.07)                 // plain observe leaves exemplars alone
	h.ObserveExemplar(5, "dddd")    // +Inf bucket

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplars = %+v", ex)
	}
	if ex[0].TraceID != "cccc" || ex[0].LE != "0.1" {
		t.Errorf("bucket 0 exemplar = %+v", ex[0])
	}
	if ex[1].TraceID != "bbbb" || ex[1].LE != "1" {
		t.Errorf("bucket 1 exemplar = %+v", ex[1])
	}
	if ex[2].TraceID != "dddd" || ex[2].LE != "+Inf" {
		t.Errorf("+Inf exemplar = %+v", ex[2])
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}

	var plain, with bytes.Buffer
	if err := reg.WriteText(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") {
		t.Error("plain exposition leaked exemplars")
	}
	if err := reg.WriteTextExemplars(&with); err != nil {
		t.Fatal(err)
	}
	out := with.String()
	for _, want := range []string{
		`le="0.1"} 3 # {trace_id="cccc"} 0.06`,
		`le="1"} 4 # {trace_id="bbbb"} 0.5`,
		`le="+Inf"} 5 # {trace_id="dddd"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Handler: exemplars only with ?exemplars=1.
	for _, tc := range []struct {
		url  string
		want bool
	}{{"/metrics", false}, {"/metrics?exemplars=1", true}} {
		req := httptest.NewRequest(http.MethodGet, tc.url, nil)
		rw := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rw, req)
		if got := strings.Contains(rw.Body.String(), "# {trace_id="); got != tc.want {
			t.Errorf("GET %s exemplars=%v, want %v", tc.url, got, tc.want)
		}
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(reg) // idempotent

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"inf2vec_runtime_goroutines",
		"inf2vec_runtime_heap_bytes",
		"inf2vec_runtime_gc_pause_p99_seconds",
		"inf2vec_runtime_gomaxprocs",
	} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, out)
		}
	}

	snap := RuntimeSnapshot()
	if snap.Goroutines <= 0 {
		t.Errorf("goroutines = %d", snap.Goroutines)
	}
	if snap.HeapBytes == 0 {
		t.Errorf("heap bytes = 0")
	}
	if snap.GOMAXPROCS <= 0 {
		t.Errorf("gomaxprocs = %d", snap.GOMAXPROCS)
	}
	if snap.GCPauseP99S < 0 {
		t.Errorf("gc pause p99 = %v", snap.GCPauseP99S)
	}
}
