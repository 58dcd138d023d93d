package walk

import (
	"testing"
	"testing/quick"

	"inf2vec/internal/actionlog"
	"inf2vec/internal/diffusion"
	"inf2vec/internal/graph"
	"inf2vec/internal/rng"
)

// chainNet builds the propagation network of a 4-user chain episode
// 0 -> 1 -> 2 -> 3 (local indices equal user IDs).
func chainNet(t *testing.T) *diffusion.PropNet {
	t.Helper()
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	e := &actionlog.Episode{Records: []actionlog.Record{
		{User: 0, Time: 0}, {User: 1, Time: 1}, {User: 2, Time: 2}, {User: 3, Time: 3},
	}}
	return diffusion.BuildPropNet(g, e)
}

func TestRestartLengthAndRange(t *testing.T) {
	pn := chainNet(t)
	r := rng.New(1)
	ctx := AppendRestart(pn, 0, 50, 0.5, r, nil)
	if len(ctx) != 50 {
		t.Fatalf("context length = %d, want 50", len(ctx))
	}
	for _, c := range ctx {
		if c <= 0 || int(c) >= pn.NumNodes() {
			t.Fatalf("context node %d out of range (start must not self-appear)", c)
		}
	}
}

func TestRestartDeadStart(t *testing.T) {
	pn := chainNet(t)
	// Local node 3 is the chain's sink: no successors.
	if ctx := AppendRestart(pn, 3, 10, 0.5, rng.New(2), nil); len(ctx) != 0 {
		t.Fatalf("sink context = %v, want empty", ctx)
	}
}

func TestRestartZeroLength(t *testing.T) {
	pn := chainNet(t)
	if ctx := AppendRestart(pn, 0, 0, 0.5, rng.New(3), nil); ctx != nil {
		t.Fatalf("zero-length context = %v, want nil", ctx)
	}
}

func TestRestartLocality(t *testing.T) {
	// With restart 0.5 on a chain from node 0, direct successors must be
	// visited far more often than 3-hop nodes.
	pn := chainNet(t)
	r := rng.New(4)
	counts := make([]int, 4)
	for trial := 0; trial < 2000; trial++ {
		for _, c := range AppendRestart(pn, 0, 5, 0.5, r, nil) {
			counts[c]++
		}
	}
	if counts[1] <= counts[3]*2 {
		t.Fatalf("locality violated: visits = %v", counts)
	}
	if counts[3] == 0 {
		t.Fatal("high-order node never reached; restart walk should explore multi-hop")
	}
}

func TestRestartHighRestartStaysFirstHop(t *testing.T) {
	pn := chainNet(t)
	r := rng.New(5)
	// restart = 1: every step returns home, so only direct successors appear.
	for trial := 0; trial < 100; trial++ {
		for _, c := range AppendRestart(pn, 0, 10, 1.0, r, nil) {
			if c != 1 {
				t.Fatalf("restart=1 visited %d, want only node 1", c)
			}
		}
	}
}

// deadEndRecovery: a node whose only successor is a sink must still produce
// a full-length context by restarting through the start node.
func TestRestartDeadEndRecovery(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {0, 2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	e := &actionlog.Episode{Records: []actionlog.Record{
		{User: 0, Time: 0}, {User: 1, Time: 1}, {User: 2, Time: 2},
	}}
	pn := diffusion.BuildPropNet(g, e)
	ctx := AppendRestart(pn, 0, 20, 0.0, rng.New(6), nil) // restart 0: recovery only via dead ends
	if len(ctx) != 20 {
		t.Fatalf("context length = %d, want 20 (dead-end recovery)", len(ctx))
	}
}

func TestNode2vecWalkValidity(t *testing.T) {
	g, err := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := &Node2vec{G: g, P: 1, Q: 1}
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		path := w.Walk(0, 20, r)
		if path[0] != 0 {
			t.Fatalf("walk does not start at 0: %v", path)
		}
		for i := 1; i < len(path); i++ {
			if !g.HasEdge(path[i-1], path[i]) {
				t.Fatalf("walk uses nonexistent edge (%d,%d)", path[i-1], path[i])
			}
		}
	}
}

func TestNode2vecWalkTerminatesAtSink(t *testing.T) {
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	w := &Node2vec{G: g, P: 1, Q: 1}
	path := w.Walk(0, 100, rng.New(8))
	if len(path) != 3 {
		t.Fatalf("walk = %v, want to stop at sink after 3 nodes", path)
	}
}

func TestNode2vecReturnBias(t *testing.T) {
	// Triangle with reciprocal edges; tiny P makes returning to the previous
	// node dominant, large P suppresses it.
	g, err := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	countReturns := func(p float64, seed uint64) int {
		w := &Node2vec{G: g, P: p, Q: 1}
		r := rng.New(seed)
		returns := 0
		for trial := 0; trial < 500; trial++ {
			path := w.Walk(0, 10, r)
			for i := 2; i < len(path); i++ {
				if path[i] == path[i-2] {
					returns++
				}
			}
		}
		return returns
	}
	low := countReturns(0.05, 9)
	high := countReturns(20, 9)
	if low <= high*2 {
		t.Fatalf("return bias not observed: low-P returns %d, high-P returns %d", low, high)
	}
}

func TestNode2vecShortRequests(t *testing.T) {
	g, err := graph.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	w := &Node2vec{G: g, P: 1, Q: 1}
	if path := w.Walk(0, 1, rng.New(10)); len(path) != 1 || path[0] != 0 {
		t.Fatalf("length-1 walk = %v", path)
	}
	if path := w.Walk(0, 0, rng.New(10)); path != nil {
		t.Fatalf("length-0 walk = %v, want nil", path)
	}
	// Start with no out-neighbors: walk is just the start node.
	if path := w.Walk(1, 5, rng.New(10)); len(path) != 1 {
		t.Fatalf("sink-start walk = %v", path)
	}
}

func TestWindowPairs(t *testing.T) {
	path := []int32{10, 20, 30, 40}
	type pair struct{ c, x int32 }
	var got []pair
	WindowPairs(path, 1, func(c, x int32) { got = append(got, pair{c, x}) })
	want := []pair{{10, 20}, {20, 10}, {20, 30}, {30, 20}, {30, 40}, {40, 30}}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", got, want)
		}
	}
}

// Property: WindowPairs emits each ordered pair (i,j) with |i-j| <= window,
// i != j exactly once: total = sum over positions of window-bounded span.
func TestWindowPairsCount(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(30)
		window := 1 + r.Intn(5)
		path := make([]int32, n)
		count := 0
		WindowPairs(path, window, func(c, x int32) { count++ })
		want := 0
		for i := 0; i < n; i++ {
			lo, hi := i-window, i+window
			if lo < 0 {
				lo = 0
			}
			if hi > n-1 {
				hi = n - 1
			}
			want += hi - lo
		}
		return count == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAppendRestartMatchesRestart pins the buffer-reuse fast path: feeding
// the same RNG stream, AppendRestart into a recycled buffer must emit
// exactly the walks it allocates fresh from a nil dst.
func TestAppendRestartMatchesRestart(t *testing.T) {
	pn := chainNet(t)
	r1, r2 := rng.New(9), rng.New(9)
	var buf []int32
	for trial := 0; trial < 200; trial++ {
		want := AppendRestart(pn, 0, 20, 0.5, r1, nil)
		buf = AppendRestart(pn, 0, 20, 0.5, r2, buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("trial %d: lengths %d vs %d", trial, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d: step %d = %d, want %d", trial, i, buf[i], want[i])
			}
		}
	}
}

// TestAppendRestartPreservesPrefix checks the append contract: existing dst
// entries stay in place, and a dead start or zero length returns dst as-is.
func TestAppendRestartPreservesPrefix(t *testing.T) {
	pn := chainNet(t)
	dst := []int32{7, 8}
	out := AppendRestart(pn, 0, 5, 0.5, rng.New(10), dst)
	if len(out) != 7 || out[0] != 7 || out[1] != 8 {
		t.Fatalf("append clobbered prefix: %v", out)
	}
	if got := AppendRestart(pn, 3, 5, 0.5, rng.New(11), dst); len(got) != len(dst) {
		t.Fatalf("dead start extended dst: %v", got)
	}
	if got := AppendRestart(pn, 0, 0, 0.5, rng.New(12), dst); len(got) != len(dst) {
		t.Fatalf("zero length extended dst: %v", got)
	}
}
