package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/benchgate"
	"inf2vec/internal/checkpoint"
	"inf2vec/internal/core"
	"inf2vec/internal/embed"
	"inf2vec/internal/graph"
	"inf2vec/internal/obs"
)

// crashPoints is the kill matrix from the acceptance criteria: every durable
// transition of one tail→retrain→publish→notify round.
var crashPoints = []string{
	"tail_read", "corpus_gen", "train_epoch", "checkpoint",
	"publish", "offset_write", "notify",
}

// TestMain shortens the stage retry policy so the fault tests retry in
// milliseconds: two retries, 1–4 ms of backoff.
func TestMain(m *testing.M) {
	maxStageRetries, backoffBase, backoffMax = 2, time.Millisecond, 4*time.Millisecond
	os.Exit(m.Run())
}

const testUsers = 12

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	var edges [][2]int32
	// A ring plus chords: connected, so random walks have somewhere to go.
	for i := int32(0); i < testUsers; i++ {
		edges = append(edges, [2]int32{i, (i + 1) % testUsers})
		edges = append(edges, [2]int32{i, (i + 3) % testUsers})
	}
	g, err := graph.FromEdges(testUsers, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// phase1 and phase2 are the two appends of the test scenario: each line is
// one action. Items are adopted by several ring-adjacent users so Algorithm 1
// produces real contexts.
func phaseLines(phase int) []string {
	var lines []string
	items := []int32{0, 1, 2}
	if phase == 1 {
		items = []int32{1, 3}
	}
	for _, it := range items {
		for j := int32(0); j < 5; j++ {
			u := (it*2 + j) % testUsers
			tm := float64(it*100) + float64(j) + float64(phase)*0.5
			lines = append(lines, fmt.Sprintf("%d\t%d\t%g", u, it, tm))
		}
	}
	return lines
}

func appendLines(t *testing.T, path string, lines []string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := io.WriteString(f, l+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func trainCfg() core.Config {
	return core.Config{
		Dim: 8, ContextLength: 4, Alpha: 0.5, RestartRatio: 0.5,
		LearningRate: 0.05, NegativeSamples: 2, Iterations: 3,
		Workers: 1, CorpusWorkers: 1, Seed: 7,
	}
}

func pipeCfg(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Graph:        testGraph(t),
		LogPath:      filepath.Join(dir, "actions.tsv"),
		ModelPath:    filepath.Join(dir, "model.i2v"),
		Train:        trainCfg(),
		PollInterval: time.Millisecond,
		Logger:       quietLogger(),
	}
}

func mustStep(t *testing.T, p *Pipeline) bool {
	t.Helper()
	published, err := p.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return published
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceModels runs the two-phase scenario uninterrupted in its own
// directory and returns the published model bytes after each phase. Every
// random choice is seeded, so any other run of the same scenario must
// reproduce these bytes exactly.
func referenceModels(t *testing.T) (afterPhase0, afterPhase1 []byte) {
	t.Helper()
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	appendLines(t, cfg.LogPath, phaseLines(0))
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("reference phase 0 did not publish")
	}
	afterPhase0 = readFile(t, cfg.ModelPath)
	appendLines(t, cfg.LogPath, phaseLines(1))
	if !mustStep(t, p) {
		t.Fatal("reference phase 1 did not publish")
	}
	afterPhase1 = readFile(t, cfg.ModelPath)
	return afterPhase0, afterPhase1
}

func TestPipelinePublishesAndCommits(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	var notifies atomic.Int64
	cfg.Notify = func(context.Context) error { notifies.Add(1); return nil }
	appendLines(t, cfg.LogPath, phaseLines(0))

	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("first step did not publish")
	}
	if n := notifies.Load(); n != 1 {
		t.Fatalf("notifies = %d, want 1", n)
	}

	// The cursor must point at the end of the consumed log and carry the
	// published model's content CRC.
	size := int64(len(readFile(t, cfg.LogPath)))
	cur, err := actionlog.LoadCursor(cfg.LogPath + ".offset")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Offset != size {
		t.Fatalf("cursor offset = %d, want log size %d", cur.Offset, size)
	}
	m, err := embed.LoadFile(cfg.ModelPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Checksum() != cur.ModelCRC {
		t.Fatalf("cursor CRC %08x does not match model %08x", cur.ModelCRC, m.Checksum())
	}
	if m.NumUsers() != testUsers {
		t.Fatalf("model universe = %d, want %d", m.NumUsers(), testUsers)
	}
	if _, err := os.Stat(cfg.LogPath + ".offset.intent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("intent not cleaned up after notify: %v", err)
	}

	// Caught up: no republish, no re-notify.
	if mustStep(t, p) {
		t.Fatal("idle step published")
	}
	if n := notifies.Load(); n != 1 {
		t.Fatalf("idle step notified: %d", n)
	}

	// New data advances the cursor and re-publishes.
	appendLines(t, cfg.LogPath, phaseLines(1))
	if !mustStep(t, p) {
		t.Fatal("step after append did not publish")
	}
	cur2, err := actionlog.LoadCursor(cfg.LogPath + ".offset")
	if err != nil {
		t.Fatal(err)
	}
	if cur2.Offset <= cur.Offset {
		t.Fatalf("cursor did not advance: %d -> %d", cur.Offset, cur2.Offset)
	}
	if notifies.Load() != 2 {
		t.Fatalf("notifies = %d, want 2", notifies.Load())
	}
}

// oneShot arms a single injected crash at the named point.
type oneShot struct {
	point string
	fired atomic.Bool
}

func (o *oneShot) hook(point string) bool {
	if point == o.point && o.fired.CompareAndSwap(false, true) {
		return true
	}
	return false
}

// TestCrashMatrixResumesToIdenticalModel kills the pipeline at every crash
// point of the matrix during the second round and asserts the two invariants
// of the protocol: immediately after the kill the published model file is
// bitwise either the old complete model or the new complete one (never torn,
// never partial), and a restarted pipeline converges to the exact bytes an
// uninterrupted run publishes.
func TestCrashMatrixResumesToIdenticalModel(t *testing.T) {
	refOld, refNew := referenceModels(t)
	if bytes.Equal(refOld, refNew) {
		t.Fatal("reference models for the two phases are identical; the scenario is vacuous")
	}

	for _, point := range crashPoints {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			cfg := pipeCfg(t, dir)
			appendLines(t, cfg.LogPath, phaseLines(0))

			// Round 1 completes cleanly.
			p1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !mustStep(t, p1) {
				t.Fatal("round 1 did not publish")
			}
			if got := readFile(t, cfg.ModelPath); !bytes.Equal(got, refOld) {
				t.Fatal("round 1 model differs from reference")
			}

			// Round 2 is killed at the crash point.
			appendLines(t, cfg.LogPath, phaseLines(1))
			armed := &oneShot{point: point}
			crashCfg := cfg
			crashCfg.Hooks = Hooks{Crash: armed.hook}
			var notified atomic.Int64
			crashCfg.Notify = func(context.Context) error { notified.Add(1); return nil }
			p2, err := New(crashCfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = p2.Step(context.Background())
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("step survived the %s crash: %v", point, err)
			}
			if !armed.fired.Load() {
				t.Fatalf("crash point %s never fired", point)
			}
			if _, err := p2.Step(context.Background()); !errors.Is(err, ErrCrashed) {
				t.Fatal("crashed pipeline accepted another step")
			}

			// Invariant 1: the model file is old-complete or new-complete.
			onDisk := readFile(t, cfg.ModelPath)
			if !bytes.Equal(onDisk, refOld) && !bytes.Equal(onDisk, refNew) {
				t.Fatalf("after %s crash the model file matches neither complete model", point)
			}

			// Restart (fresh process: no injected faults) and catch up.
			restartCfg := cfg
			restartCfg.Notify = func(context.Context) error { notified.Add(1); return nil }
			p3, err := New(restartCfg)
			if err != nil {
				t.Fatalf("restart after %s crash: %v", point, err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := p3.Step(context.Background()); err != nil {
					t.Fatalf("restarted step after %s crash: %v", point, err)
				}
				size := int64(len(readFile(t, cfg.LogPath)))
				if p3.Committed().Offset == size {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("restart after %s crash never caught up", point)
				}
			}

			// Invariant 2: bitwise identical to the uninterrupted run.
			final := readFile(t, cfg.ModelPath)
			if !bytes.Equal(final, refNew) {
				t.Fatalf("after %s crash + restart the published model differs from the uninterrupted run", point)
			}
			cur, err := actionlog.LoadCursor(cfg.LogPath + ".offset")
			if err != nil {
				t.Fatal(err)
			}
			if cur.Offset != int64(len(readFile(t, cfg.LogPath))) {
				t.Fatalf("cursor offset %d does not cover the log", cur.Offset)
			}
			if notified.Load() == 0 {
				t.Fatalf("serving layer never notified across the %s crash", point)
			}
			if _, err := os.Stat(cfg.LogPath + ".offset.intent"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("intent left behind after recovery: %v", err)
			}
		})
	}
}

// TestCrashBetweenCheckpointAndOffsetAdvance is the named satellite case:
// the process dies after the trainer's checkpoint hits disk but before the
// resume offset advances. The restarted pipeline must resume mid-round from
// that checkpoint and still publish embeddings bitwise identical to a run
// that was never interrupted.
func TestCrashBetweenCheckpointAndOffsetAdvance(t *testing.T) {
	_, refNew := referenceModels(t)

	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	appendLines(t, cfg.LogPath, phaseLines(0))
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p1) {
		t.Fatal("round 1 did not publish")
	}
	committed := p1.Committed()

	appendLines(t, cfg.LogPath, phaseLines(1))
	armed := &oneShot{point: "checkpoint"}
	crashCfg := cfg
	crashCfg.Hooks = Hooks{Crash: armed.hook}
	p2, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Step(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("step survived the checkpoint crash: %v", err)
	}

	// The checkpoint is on disk; the offset has not advanced.
	if _, err := os.Stat(cfg.ModelPath + ".ckpt"); err != nil {
		t.Fatalf("no checkpoint on disk after the crash: %v", err)
	}
	cur, err := actionlog.LoadCursor(cfg.LogPath + ".offset")
	if err != nil {
		t.Fatal(err)
	}
	if cur != committed {
		t.Fatalf("crash moved the cursor: %+v -> %+v", committed, cur)
	}

	// Restart resumes from the checkpoint (verified via telemetry: the
	// fresh-train path would re-emit corpus events after epoch events).
	p3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p3) {
		t.Fatal("restarted pipeline did not publish")
	}
	if got := readFile(t, cfg.ModelPath); !bytes.Equal(got, refNew) {
		t.Fatal("resumed run published different bytes than the uninterrupted run")
	}
}

// TestMismatchedCheckpointTrainsFresh leaves a round's checkpoint on disk,
// as a crash after the checkpoint write does, and rewrites its config
// fingerprint, as a checkpoint written by an older SGD pass carries. The
// restarted round must log that the checkpoint is unusable, train fresh
// and publish the bytes of the uninterrupted run.
func TestMismatchedCheckpointTrainsFresh(t *testing.T) {
	_, refNew := referenceModels(t)

	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	appendLines(t, cfg.LogPath, phaseLines(0))
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p1) {
		t.Fatal("round 1 did not publish")
	}
	appendLines(t, cfg.LogPath, phaseLines(1))
	crashCfg := cfg
	crashCfg.Hooks = Hooks{Crash: (&oneShot{point: "checkpoint"}).hook}
	p2, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Step(context.Background()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("step survived the checkpoint crash: %v", err)
	}
	ckpt := cfg.ModelPath + ".ckpt"
	st, err := checkpoint.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	st.ConfigHash ^= 1
	if err := checkpoint.SaveFile(ckpt, st); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	p3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p3) {
		t.Fatal("restarted pipeline did not publish")
	}
	if !strings.Contains(logs.String(), "checkpoint unusable; training fresh") {
		t.Errorf("restarted round did not report the unusable checkpoint; log:\n%s", logs.String())
	}
	if got := readFile(t, cfg.ModelPath); !bytes.Equal(got, refNew) {
		t.Fatal("fresh retrain published different bytes than the uninterrupted run")
	}
}

// TestCrashRevivesPublishedRoundCheckpoint brings back a round's checkpoint
// after the round published. The pipeline deletes it with os.Remove and no
// directory fsync, so a power loss can undo the removal. The copy is taken
// when the publish stage starts, with the round's final checkpoint on disk;
// the restarted pipeline must not resume the next round from it, and must
// publish the bytes of the uninterrupted run.
func TestCrashRevivesPublishedRoundCheckpoint(t *testing.T) {
	_, refNew := referenceModels(t)

	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	ckpt := cfg.ModelPath + ".ckpt"
	var saved []byte
	cfg.Hooks.Fail = func(point string) error {
		if point == "publish" && saved == nil {
			saved = readFile(t, ckpt)
		}
		return nil
	}
	appendLines(t, cfg.LogPath, phaseLines(0))
	p1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p1) {
		t.Fatal("round 1 did not publish")
	}
	if saved == nil {
		t.Fatal("round 1 never reached the publish stage")
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("round checkpoint outlived its publish: %v", err)
	}

	// Power loss: the removal never reached the directory.
	if err := os.WriteFile(ckpt, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	appendLines(t, cfg.LogPath, phaseLines(1))
	cfg.Hooks = Hooks{}
	p2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p2) {
		t.Fatal("round 2 did not publish")
	}
	if got := readFile(t, cfg.ModelPath); !bytes.Equal(got, refNew) {
		t.Fatal("round 2 published different bytes than the uninterrupted run")
	}
}

// TestFaultInjectionRetriesAndRecovers fails the tail stage's first attempts
// and asserts the supervisor retries with backoff and the step still
// succeeds, with the retries visible in the metrics.
func TestFaultInjectionRetriesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	appendLines(t, cfg.LogPath, phaseLines(0))
	var attempts atomic.Int64
	cfg.Hooks.Fail = func(point string) error {
		if point == "tail" && attempts.Add(1) <= 2 {
			return errors.New("injected tail fault")
		}
		return nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("step did not publish despite retries")
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("tail attempts = %d, want 3 (two injected failures + success)", got)
	}
	if v := p.met.stageRetries.With("tail").Value(); v != 2 {
		t.Fatalf("pipeline_stage_retries_total{stage=tail} = %v, want 2", v)
	}
	if v := p.met.stageFailures.With("tail").Value(); v != 0 {
		t.Fatalf("tail stage recorded as failed: %v", v)
	}
}

// staleSeconds reads pipeline_stale_seconds from the registry's text
// exposition, exactly as a scraper would.
func staleSeconds(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "pipeline_stale_seconds ") {
			var v float64
			if _, err := fmt.Sscanf(line, "pipeline_stale_seconds %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatal("pipeline_stale_seconds not exposed")
	return 0
}

// TestFaultTrainFailureKeepsOldModelServing drives the graceful-degradation
// contract: a persistently failing retrain leaves the last good model
// untouched on disk while pipeline_stale_seconds rises; once the fault
// clears, the backlog publishes and the staleness gauge drops back to zero.
func TestFaultTrainFailureKeepsOldModelServing(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	cfg.Registry = obs.NewRegistry()
	var failing atomic.Bool
	cfg.Hooks.Fail = func(point string) error {
		if point == "train" && failing.Load() {
			return errors.New("injected training fault")
		}
		return nil
	}
	appendLines(t, cfg.LogPath, phaseLines(0))
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("round 1 did not publish")
	}
	oldModel := readFile(t, cfg.ModelPath)
	if v := staleSeconds(t, cfg.Registry); v != 0 {
		t.Fatalf("caught-up pipeline reports staleness %v", v)
	}

	failing.Store(true)
	appendLines(t, cfg.LogPath, phaseLines(1))
	for i := 0; i < 2; i++ {
		if _, err := p.Step(context.Background()); err == nil {
			t.Fatal("step succeeded despite the training fault")
		}
	}
	if got := readFile(t, cfg.ModelPath); !bytes.Equal(got, oldModel) {
		t.Fatal("failed retrain disturbed the published model")
	}
	if v := staleSeconds(t, cfg.Registry); v <= 0 {
		t.Fatalf("stale gauge = %v during degraded operation, want > 0", v)
	}
	if v := p.met.stageFailures.With("train").Value(); v != 2 {
		t.Fatalf("train stage failures = %v, want 2", v)
	}

	failing.Store(false)
	if !mustStep(t, p) {
		t.Fatal("recovered step did not publish")
	}
	if v := staleSeconds(t, cfg.Registry); v != 0 {
		t.Fatalf("stale gauge = %v after recovery, want 0", v)
	}
	if got := readFile(t, cfg.ModelPath); bytes.Equal(got, oldModel) {
		t.Fatal("recovered publish did not update the model")
	}
}

// TestFaultNotifyRetriedUntilSuccess exercises the reload signal's at-least-
// once delivery: a failing notify keeps the publish durable (model + cursor
// committed) and is retried on later steps until it lands, only then
// releasing the intent file.
func TestFaultNotifyRetriedUntilSuccess(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	var calls atomic.Int64
	var accept atomic.Bool
	cfg.Notify = func(context.Context) error {
		calls.Add(1)
		if !accept.Load() {
			return errors.New("injected notify fault")
		}
		return nil
	}
	appendLines(t, cfg.LogPath, phaseLines(0))
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	published, err := p.Step(context.Background())
	if !published {
		t.Fatal("step did not publish")
	}
	if err == nil {
		t.Fatal("step succeeded despite the notify fault")
	}
	// The publish itself is committed; only the signal is outstanding.
	size := int64(len(readFile(t, cfg.LogPath)))
	if p.Committed().Offset != size {
		t.Fatalf("publish not committed: offset %d, want %d", p.Committed().Offset, size)
	}
	if _, err := os.Stat(cfg.LogPath + ".offset.intent"); err != nil {
		t.Fatalf("intent must persist while the notify is outstanding: %v", err)
	}

	accept.Store(true)
	if mustStep(t, p) {
		t.Fatal("notify-only step claimed a publish")
	}
	if calls.Load() < 2 {
		t.Fatalf("notify was not retried: %d calls", calls.Load())
	}
	if _, err := os.Stat(cfg.LogPath + ".offset.intent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("intent not released after successful notify: %v", err)
	}
	// Fully idle afterwards.
	before := calls.Load()
	if mustStep(t, p) {
		t.Fatal("idle step published")
	}
	if calls.Load() != before {
		t.Fatal("idle step re-notified")
	}
}

// TestRunDrainsBacklogAndStopsOnCancel is a small smoke test of the Run
// loop: it publishes, then idles until the context is canceled.
func TestRunDrainsBacklogAndStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	published := make(chan struct{}, 1)
	cfg.Notify = func(context.Context) error {
		select {
		case published <- struct{}{}:
		default:
		}
		return nil
	}
	appendLines(t, cfg.LogPath, phaseLines(0))
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Run(ctx) }()
	select {
	case <-published:
	case <-time.After(30 * time.Second):
		t.Fatal("Run never published")
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on clean cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// keepAllTracer keeps every finished trace: sampling at 1.0 and the slow
// threshold disabled, so tests can assert on exact trace contents.
func keepAllTracer() *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{SampleRate: 1, SlowThreshold: -1})
}

// spanNames collects the names of a trace's spans, with multiplicity.
func spanNames(rec *obs.TraceRecord) map[string]int {
	names := make(map[string]int)
	for _, s := range rec.Spans {
		names[s.Name]++
	}
	return names
}

// TestStepTraceSpans publishes one round under a keep-all tracer and asserts
// the trace tree: a pipeline_step root with tail/round/notify children, the
// stage spans beneath the round, and the trainer's corpus/epoch spans
// beneath the train stage — with every span closed by the end of the step.
func TestStepTraceSpans(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	cfg.Tracer = keepAllTracer()
	cfg.Notify = func(context.Context) error { return nil }
	appendLines(t, cfg.LogPath, phaseLines(0))
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("step did not publish")
	}
	if open := cfg.Tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open after a clean step", open)
	}
	traces := cfg.Tracer.Traces(obs.TraceFilter{Root: "pipeline_step"})
	if len(traces) != 1 {
		t.Fatalf("got %d pipeline_step traces, want 1", len(traces))
	}
	rec := traces[0]
	if rec.Status != "" {
		t.Fatalf("clean step trace has status %q", rec.Status)
	}
	names := spanNames(rec)
	for _, want := range []string{"pipeline_step", "tail", "round", "train", "publish", "notify", "corpus_gen"} {
		if names[want] == 0 {
			t.Fatalf("trace is missing a %q span; got %v", want, names)
		}
	}
	if names["epoch"] != trainCfg().Iterations {
		t.Fatalf("trace has %d epoch spans, want %d", names["epoch"], trainCfg().Iterations)
	}

	// Parent links: round under the root, train under the round, epochs
	// under the train attempt.
	byID := make(map[string]obs.SpanRecord)
	var root obs.SpanRecord
	for _, s := range rec.Spans {
		byID[s.SpanID] = s
		if s.Name == "pipeline_step" {
			root = s
		}
	}
	parentName := func(s obs.SpanRecord) string { return byID[s.ParentID].Name }
	for _, s := range rec.Spans {
		switch s.Name {
		case "round":
			if s.ParentID != root.SpanID {
				t.Fatalf("round span's parent is %q, want the step root", parentName(s))
			}
		case "train", "publish":
			if got := parentName(s); got != "round" {
				t.Fatalf("%s span's parent is %q, want round", s.Name, got)
			}
		case "epoch", "corpus_gen":
			if got := parentName(s); got != "train" {
				t.Fatalf("%s span's parent is %q, want train", s.Name, got)
			}
			if s.Name == "epoch" {
				if _, ok := s.Attrs["loss"]; !ok {
					t.Fatalf("epoch span has no loss attr: %v", s.Attrs)
				}
				if _, ok := s.Attrs["examples_per_sec"]; !ok {
					t.Fatalf("epoch span has no examples_per_sec attr: %v", s.Attrs)
				}
			}
		}
	}
	if pub, ok := root.Attrs["published"]; !ok || pub != true {
		t.Fatalf("root published attr = %v, want true", root.Attrs["published"])
	}
}

// TestCrashMatrixClosesAllSpans kills the pipeline at every crash point and
// asserts no span is left open: the simulated kill -9 unwinds through the
// round, stage and telemetry spans, and each must close on the way out (the
// crash/error statuses mark the path), leaving OpenSpans at zero and a
// retained trace whose root records the crash point.
func TestCrashMatrixClosesAllSpans(t *testing.T) {
	for _, point := range crashPoints {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			cfg := pipeCfg(t, dir)
			cfg.Tracer = keepAllTracer()
			appendLines(t, cfg.LogPath, phaseLines(0))
			armed := &oneShot{point: point}
			cfg.Hooks = Hooks{Crash: armed.hook}
			cfg.Notify = func(context.Context) error { return nil }
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Step(context.Background()); !errors.Is(err, ErrCrashed) {
				t.Fatalf("step survived the %s crash: %v", point, err)
			}
			if open := cfg.Tracer.OpenSpans(); open != 0 {
				t.Fatalf("%d spans left open after the %s crash", open, point)
			}
			traces := cfg.Tracer.Traces(obs.TraceFilter{Root: "pipeline_step"})
			if len(traces) != 1 {
				t.Fatalf("got %d traces after the %s crash, want 1", len(traces), point)
			}
			rec := traces[0]
			if rec.Status != "crashed" {
				t.Fatalf("crashed trace has root status %q, want crashed", rec.Status)
			}
			for _, s := range rec.Spans {
				if s.Name == "pipeline_step" {
					if got := s.Attrs["crash_point"]; got != point {
						t.Fatalf("crash_point attr = %v, want %s", got, point)
					}
				}
			}
		})
	}
}

// TestRetryAttemptsAreSiblingSpans fails the tail stage twice and asserts
// the retries show up as three sibling "tail" spans with 1-based attempt
// attrs, the failed ones marked error.
func TestRetryAttemptsAreSiblingSpans(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	cfg.Tracer = keepAllTracer()
	appendLines(t, cfg.LogPath, phaseLines(0))
	var attempts atomic.Int64
	cfg.Hooks.Fail = func(point string) error {
		if point == "tail" && attempts.Add(1) <= 2 {
			return errors.New("injected tail fault")
		}
		return nil
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mustStep(t, p) {
		t.Fatal("step did not publish despite retries")
	}
	traces := cfg.Tracer.Traces(obs.TraceFilter{Root: "pipeline_step"})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	var tails []obs.SpanRecord
	for _, s := range traces[0].Spans {
		if s.Name == "tail" {
			tails = append(tails, s)
		}
	}
	if len(tails) != 3 {
		t.Fatalf("got %d tail spans, want 3 (two failed attempts + success)", len(tails))
	}
	for i, s := range tails {
		if got := s.Attrs["attempt"]; got != i+1 {
			t.Fatalf("tail span %d has attempt attr %v, want %d", i, got, i+1)
		}
		if i < 2 && s.Status != "error" {
			t.Fatalf("failed attempt %d has status %q, want error", i+1, s.Status)
		}
		if i == 2 && s.Status != "" {
			t.Fatalf("successful attempt has status %q", s.Status)
		}
		if s.ParentID != tails[0].ParentID {
			t.Fatal("retry attempts are not sibling spans")
		}
	}
}

// TestRecordPipelineBench measures streaming throughput (actions tailed per
// second) and retrain lag quantiles over repeated small rounds, and — when
// INF2VEC_WRITE_BENCH is set — records them in BENCH_pipeline.json at the
// repository root.
func TestRecordPipelineBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench recording skipped in -short mode")
	}
	dir := t.TempDir()
	cfg := pipeCfg(t, dir)
	reg := obs.NewRegistry()
	cfg.Registry = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var actions int64
	tailStart := time.Now()
	for r := 0; r < rounds; r++ {
		lines := phaseLines(r % 2)
		actions += int64(len(lines))
		appendLines(t, cfg.LogPath, lines)
		if !mustStep(t, p) {
			t.Fatalf("round %d did not publish", r)
		}
	}
	elapsed := time.Since(tailStart)

	lag := p.met.retrainLag
	if lag.Count() != rounds {
		t.Fatalf("retrain lag observations = %d, want %d", lag.Count(), rounds)
	}
	report := map[string]any{
		"benchmark":            "pipeline_streaming",
		"rounds":               rounds,
		"actions_tailed":       actions,
		"actions_per_second":   float64(actions) / elapsed.Seconds(),
		"retrain_lag_p50_s":    lag.Quantile(0.50),
		"retrain_lag_p99_s":    lag.Quantile(0.99),
		"last_retrain_lag_s":   p.LastRetrainLag().Seconds(),
		"train_dim":            cfg.Train.Dim,
		"train_iterations":     cfg.Train.Iterations,
		"users":                testUsers,
		"corpus_cache_hits":    p.met.cacheHits.Value(),
		"corpus_cache_misses":  p.met.cacheMisses.Value(),
		"wall_clock_seconds":   elapsed.Seconds(),
		"go_test_generated_by": "internal/pipeline.TestRecordPipelineBench (INF2VEC_WRITE_BENCH=1)",
	}
	if p.met.cacheHits.Value() == 0 {
		t.Fatal("corpus cache never hit across rounds; incremental regeneration is not engaging")
	}
	benchgate.Record(t, "BENCH_pipeline.json", report)
}
