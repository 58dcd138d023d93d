package ann

import (
	"bytes"
	"testing"

	"inf2vec/internal/embed"
	"inf2vec/internal/rng"
)

// FuzzBuild feeds fuzzed embedding-store bytes through embed.Load and, when
// they decode, builds an index over them: whatever a (possibly corrupt but
// well-formed) model contains — NaN rows, huge values, tiny universes — Build
// must return a structurally sound index, never panic.
func FuzzBuild(f *testing.F) {
	seedStore := func(n int32, dim int, seed uint64) []byte {
		st, err := embed.New(n, dim)
		if err != nil {
			f.Fatal(err)
		}
		st.Init(rng.New(seed))
		var buf bytes.Buffer
		if err := st.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seedStore(50, 4, 1))
	f.Add(seedStore(300, 2, 9))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := embed.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.NumUsers() > 1<<14 {
			t.Skip("universe too large for a fuzz iteration")
		}
		ix, err := Build(st, Config{Shards: 3, Seed: 42})
		if err != nil {
			t.Fatalf("Build over a valid store failed: %v", err)
		}
		seen := make([]bool, ix.n)
		count := 0
		for si := range ix.shards {
			sh := &ix.shards[si]
			for _, m := range sh.members {
				for _, v := range m {
					if v < sh.lo || v >= sh.hi || seen[v] {
						t.Fatalf("bad member %d in shard [%d,%d)", v, sh.lo, sh.hi)
					}
					seen[v] = true
					count++
				}
			}
			for _, v := range sh.residual {
				if v < sh.lo || v >= sh.hi || seen[v] {
					t.Fatalf("bad residual %d in shard [%d,%d)", v, sh.lo, sh.hi)
				}
				seen[v] = true
				count++
			}
		}
		if count != int(ix.n) {
			t.Fatalf("index files %d of %d users", count, ix.n)
		}
	})
}
