package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around a call into a layer's public function or from
// the timestamps of a callback the benchmark handed the program. Times are
// offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Count is the work the layer reports for the span, when it reports
	// one: positive examples for a training epoch.
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. While it is off (or nil)
// every method is a no-op that returns span ID 0, so untraced code paths pay
// one atomic load per call site.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(on)
	return t
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now is the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// at converts a wall-clock instant to an offset from the epoch.
func (t *tracer) at(ts time.Time) time.Duration { return ts.Sub(t.epoch) }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int, start, end time.Duration) int {
	return t.recordWork(name, parent, start, end, 0)
}

// recordWork stores a finished span that processed count items.
func (t *tracer) recordWork(name string, parent int, start, end time.Duration, count int64) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Count: count})
	return id
}

// open starts a span whose children are recorded before it ends; close
// finishes it.
func (t *tracer) open(name string, parent int) int {
	now := t.now()
	return t.record(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if id == 0 || t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	start := t.now()
	fn()
	t.record(name, parent, start, t.now())
}

// spanStats holds, in recording order, the length and self time of every
// span of one name, converted to one unit, and the count per second of
// those that carry a count. Every per-layer time is read from these.
type spanStats struct{ length, self, rate samples }

// stats gathers the spans named name. A span's self time is its length
// minus the part of its interval its direct children cover: the time no
// layer below it accounts for.
func (t *tracer) stats(name string, unit func(time.Duration) float64) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.childrenLocked()
	var st spanStats
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		st.length = append(st.length, unit(s.End-s.Start))
		st.self = append(st.self, unit(s.End-s.Start-covered(s, kids[s.ID])))
		if s.Count > 0 && s.End > s.Start {
			st.rate = append(st.rate, float64(s.Count)/(s.End-s.Start).Seconds())
		}
	}
	return st
}

// selfTimes sums the self times of the spans of each name.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := t.childrenLocked()
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return self
}

// childrenLocked indexes the spans by parent ID. The caller holds t.mu.
func (t *tracer) childrenLocked() map[int][]span {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curStart, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		start, end := max(k.Start, parent.Start), min(k.End, parent.End)
		if end <= start {
			continue
		}
		if start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = start, end
			continue
		}
		curEnd = max(curEnd, end)
	}
	return total + curEnd - curStart
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
