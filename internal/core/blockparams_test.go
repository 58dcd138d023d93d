package core

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"
	"unsafe"

	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
)

// TestTrainingRestoresCorpusUserIDs checks that the contexts of a corpus
// hold user ids again however a training call ends: after TrainOnCorpus
// returns, after a TrainContext canceled inside a pass, and after a
// Telemetry callback panics at epoch_end and the panic is recovered. Each
// context must hold the ids it was generated with, stably sorted by block,
// which is the order newStrata leaves behind. The last two cases read the
// contexts through a CorpusCache, which hands them to the pipeline's next
// round: a context left holding rows would train that round on the wrong
// users.
func TestTrainingRestoresCorpusUserIDs(t *testing.T) {
	g, l := corpusWorld(t) // 40 users in both blocks: rows are not ids
	cfg := Config{Dim: 8, Iterations: 3, Seed: 5, ContextLength: 10, Workers: 2, CorpusWorkers: 1}
	full, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// generate draws the corpus TrainContext draws from cfg.Seed.
	generate := func() *Corpus { return GenerateCorpus(g, l, full, rng.New(cfg.Seed).Split()) }
	want := generate()
	for _, tp := range want.Tuples {
		slices.SortStableFunc(tp.Context, func(a, b int32) int { return userBlock(a) - userBlock(b) })
	}
	check := func(t *testing.T, got []Tuple) {
		t.Helper()
		if len(got) != len(want.Tuples) {
			t.Fatalf("%d tuples, want %d", len(got), len(want.Tuples))
		}
		for k, tp := range got {
			if w := want.Tuples[k]; tp.Center != w.Center || !slices.Equal(tp.Context, w.Context) {
				t.Fatalf("tuple %d = %d %v, want %d %v", k, tp.Center, tp.Context, w.Center, w.Context)
			}
		}
	}
	cached := func(c *CorpusCache) []Tuple {
		var tuples []Tuple
		for i := 0; i < l.NumEpisodes(); i++ {
			tuples = append(tuples, c.entries[i].tuples...)
		}
		return tuples
	}

	t.Run("returned", func(t *testing.T) {
		corpus := generate()
		if _, err := TrainOnCorpus(l.NumUsers(), corpus, cfg); err != nil {
			t.Fatal(err)
		}
		check(t, corpus.Tuples)
	})
	t.Run("canceled mid-pass", func(t *testing.T) {
		c := cfg
		c.CorpusCache = NewCorpusCache()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Canceled as the second pass starts, the pass stops at its cells'
		// first poll and training returns from inside it.
		c.Telemetry = func(e Event) {
			if e.Kind == EventEpochStart && e.Epoch == 2 {
				cancel()
			}
		}
		res, err := TrainContext(ctx, g, l, c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Canceled || len(res.Epochs) != 1 {
			t.Fatalf("canceled = %t after %d epochs, want a cancel in the second pass", res.Canceled, len(res.Epochs))
		}
		check(t, cached(c.CorpusCache))
	})
	t.Run("panic at epoch_end", func(t *testing.T) {
		c := cfg
		c.CorpusCache = NewCorpusCache()
		c.Telemetry = func(e Event) {
			if e.Kind == EventEpochEnd {
				panic("injected")
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the Telemetry panic did not reach the caller")
				}
			}()
			TrainContext(context.Background(), g, l, c)
		}()
		check(t, cached(c.CorpusCache))
	})
}

// TestSharedContextsRefused: training rewrites each context's user ids to
// rows in place, so two tuples whose contexts overlap in memory would have
// the overlap rewritten twice. TrainOnCorpus refuses such a corpus before
// it writes anything, and accepts contexts that are disjoint parts of one
// array.
func TestSharedContextsRefused(t *testing.T) {
	const users = 100
	ids := []int32{1, 40, 2, 70, 5, 99}
	corpus := func(tuples ...Tuple) *Corpus {
		c := &Corpus{Tuples: tuples, ContextFreq: make([]int64, users)}
		for _, tp := range tuples {
			for _, v := range tp.Context {
				c.ContextFreq[v]++
				c.NumPositives++
			}
		}
		return c
	}
	cfg := Config{Dim: 4, Iterations: 1, Seed: 1}
	shared := corpus(Tuple{Center: 0, Context: ids[:4]}, Tuple{Center: 3, Context: []int32{9}}, Tuple{Center: 4, Context: ids[2:]})
	before := slices.Clone(ids)
	if _, err := TrainOnCorpus(users, shared, cfg); err == nil {
		t.Error("a corpus whose contexts overlap trained")
	}
	if !slices.Equal(ids, before) {
		t.Errorf("refused corpus changed: %v, was %v", ids, before)
	}
	if _, err := TrainOnCorpus(users, corpus(Tuple{Center: 0, Context: ids[:3]}, Tuple{Center: 4, Context: ids[3:]}), cfg); err != nil {
		t.Errorf("disjoint parts of one array: %v", err)
	}
}

// TestBlockParamsAgainstStore pins the working copy against the
// user-order store: init draws what embed.Store.Init draws, with a warm
// start copied over the users it holds; filling the copy from a store and
// draining it gives the store's bytes back; each block's S, T, b and b̃
// start a 4 KB page and are padded by less than one; and diverged's probe
// sees a non-finite coordinate exactly when embed.Store.SampleNonFinite
// of the same parameters in user order does, for every coordinate and
// several probe sizes.
func TestBlockParamsAgainstStore(t *testing.T) {
	const users, dim = 70, 3 // three chunks: block sizes are not multiples of 32
	st, err := newStrata(&Corpus{ContextFreq: make([]int64, users)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	save := func(s *embed.Store) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	warm, err := embed.New(40, dim) // one chunk and part of the next
	if err != nil {
		t.Fatal(err)
	}
	warm.Init(rng.New(2))
	store, err := embed.New(users, dim)
	if err != nil {
		t.Fatal(err)
	}
	store.Init(rng.New(1))
	p := newBlockParams(st, dim)
	p.init(rng.New(1), nil)
	if !bytes.Equal(save(p.store()), save(store)) {
		t.Error("init drew other parameters than embed.Store.Init")
	}
	if err := store.CopyPrefix(warm); err != nil {
		t.Fatal(err)
	}
	p.init(rng.New(1), warm)
	if !bytes.Equal(save(p.store()), save(store)) {
		t.Error("init with a warm start differs from embed.Store.Init and CopyPrefix")
	}
	store.Init(rng.New(5))
	p.fill(store)
	if !bytes.Equal(save(p.store()), save(store)) {
		t.Error("fill then drain changed the store")
	}

	var arrays [][]float32 // in allocation order
	for j := range p.st.users {
		arrays = append(arrays, p.s[j], p.t[j], p.bs[j], p.bt[j])
	}
	for x, a := range arrays {
		if len(a) == 0 {
			t.Fatalf("array %d of the working copy is empty; both blocks need users", x)
		}
		if addr(a)%4096 != 0 {
			t.Errorf("array %d of the working copy starts at %#x, not a page", x, addr(a))
		}
		if x > 0 {
			prev := uintptr(len(arrays[x-1])) * 4
			if gap := addr(a) - addr(arrays[x-1]); gap < prev || gap >= prev+4096 {
				t.Errorf("array %d starts %d bytes after array %d, which holds %d", x, gap, x-1, prev)
			}
		}
	}

	poisons := []func(s *embed.Store, i int) *float32{
		func(s *embed.Store, i int) *float32 { return &s.SourceVec(int32(i / dim))[i%dim] },
		func(s *embed.Store, i int) *float32 { return &s.TargetVec(int32(i / dim))[i%dim] },
		func(s *embed.Store, i int) *float32 { return s.BiasSource(int32(i)) },
		func(s *embed.Store, i int) *float32 { return s.BiasTarget(int32(i)) },
	}
	for a, at := range poisons {
		n := [4]int{users * dim, users * dim, users, users}[a]
		for i := 0; i < n; i++ {
			s := store.Clone()
			*at(s, i) = float32(math.NaN())
			p.fill(s)
			for _, maxPerBlock := range []int{1, 7, 50, 4096} {
				if got, want := p.sampleNonFinite(maxPerBlock), s.SampleNonFinite(maxPerBlock); got != want {
					t.Errorf("NaN at %d of array %d, %d per block: probe %t, SampleNonFinite %t", i, a, maxPerBlock, got, want)
				}
			}
		}
	}
}

// addr returns where the elements of s start.
func addr(s []float32) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s))) }
