package htmlparse

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/hvscan/hvscan/internal/obs"
)

func readBenchPage(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "bench", name+".html"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArenaSlabSizing: a ~1 KB page fits one slab sized from its input,
// well under arenaChunk nodes, and a ~48 KB page gets full arenaChunk
// slabs. The slab count is read through the Instrument counters; the
// capacity from the arena the parse leaves behind.
func TestArenaSlabSizing(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { metrics.Store(nil) })
	slabs, nodes := reg.Counter("htmlparse_arena_slabs_total"), reg.Counter("htmlparse_arena_nodes_total")
	for _, tc := range []struct {
		page string
		// ok judges a parse that served n nodes from s slabs holding c
		// nodes in all.
		ok   func(n, s, c uint64) bool
		want string
	}{
		{"small", func(n, s, c uint64) bool { return s == 1 && c < arenaChunk && c <= 2*n },
			"one slab sized from the input"},
		{"typical", func(n, s, c uint64) bool { return s == (n+arenaChunk-1)/arenaChunk && c == s*arenaChunk },
			"full arenaChunk slabs"},
	} {
		pre, err := Preprocess(readBenchPage(t, tc.page))
		if err != nil {
			t.Fatal(err)
		}
		s0, n0 := slabs.Value(), nodes.Value()
		p := new(Parser)
		if _, err := p.parse(pre, Options{}, nil); err != nil {
			t.Fatal(err)
		}
		s, n := slabs.Value()-s0, nodes.Value()-n0
		c := n + uint64(len(p.tb.arena.slab))
		if !tc.ok(n, s, c) {
			t.Errorf("%s: %d nodes in %d slabs of %d nodes in all, want %s", tc.page, n, s, c, tc.want)
		}
	}
}

// TestParseReuseAllocBytes pins the bytes a pooled parse of a ~1 KB page
// allocates, which the node arena used to round up to 256 nodes.
func TestParseReuseAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures under the race detector are not the program's")
	}
	input := readBenchPage(t, "small")
	got := allocBytesPerRun(200, func() {
		if _, err := ParseReuse(input); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 32 << 10
	t.Logf("ParseReuse(small): %.0f B/op", got)
	if got > limit {
		t.Fatalf("ParseReuse(small) allocates %.0f B/op, want <= %d", got, limit)
	}
}

// allocBytesPerRun reports the bytes f allocates per call, averaged over
// runs calls after a warm-up call, in the manner of testing.AllocsPerRun.
func allocBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
