package bench

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/trace"
)

func TestArenaCacheSharesOneSlabPerWorkload(t *testing.T) {
	c := NewArenaCache()
	w, err := ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(5_000)
	const callers = 8
	arenas := make([]*trace.Arena, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			arenas[g] = c.Get(w)
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if arenas[g] != arenas[0] {
			t.Fatal("concurrent Get calls returned distinct slabs for one workload")
		}
	}
	if arenas[0].Len() != 5_000 {
		t.Fatalf("slab holds %d instructions, want 5000", arenas[0].Len())
	}
	// A different instruction count is a different key.
	if c.Get(w.ScaledTo(1_000)) == arenas[0] {
		t.Fatal("different trace lengths share one slab")
	}
}

// TestArenaCacheSlabIsExact: a workload's slab is sized from its
// instruction count, so it is one allocation of exactly that length. A
// cursor's first whole-slab window is a view of the slab, so its
// capacity is the slab's.
func TestArenaCacheSlabIsExact(t *testing.T) {
	c := NewArenaCache()
	for _, w := range Full() {
		w := w.ScaledTo(20_000)
		a := c.Get(w)
		win := a.Cursor().NextSlice(a.Len())
		if a.Len() != w.Instructions || len(win) != w.Instructions || cap(win) != w.Instructions {
			t.Errorf("%s: slab len %d, window len %d cap %d, want all %d", w.Name, a.Len(), len(win), cap(win), w.Instructions)
		}
	}
	// A generated slab is filled in place: building one allocates the
	// generator's own state and the slab's bytes, and nothing else — no
	// window buffer (arenaChunk records, 128 KiB), no doubling copies,
	// no shrink copy. The slack covers the arena header, the cache
	// entry and the rounding of the slab to whole pages. The runtime's
	// own allocations (a GC cycle starting its workers) can land inside
	// one measurement, so the slab's cost is the least of three builds.
	w, err := ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(200_000)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var s trace.Stream
	state := allocated(func() { s = w.Stream() })
	if trace.Count(s) != w.Instructions {
		t.Fatalf("stream holds %d instructions, want %d", trace.Count(w.Stream()), w.Instructions)
	}
	slab := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		slab = min(slab, allocated(func() { NewArenaCache().Get(w) }))
	}
	const slack = 8 << 10
	if limit := state + uint64(unsafe.Sizeof(trace.Inst{}))*uint64(w.Instructions) + slack; slab > limit {
		t.Errorf("building a %d-instruction slab allocated %d B, generator state alone %d B: want at most %d", w.Instructions, slab, state, limit)
	}
}

// TestArenaCacheReplaysGeneratorExactly is the decode-once determinism
// foundation: a cached slab's cursor must replay the identical
// instruction sequence — and phase annotation — a fresh generator
// stream produces, for every registered workload.
func TestArenaCacheReplaysGeneratorExactly(t *testing.T) {
	c := NewArenaCache()
	for _, w := range Full() {
		w := w.ScaledTo(3_000)
		cur := c.Get(w).Cursor()
		if cur.HasPhases() != w.HasPhases() {
			t.Errorf("%s: arena phase annotation %v, workload %v", w.Name, cur.HasPhases(), w.HasPhases())
		}
		if !reflect.DeepEqual(collect(cur), collect(w.Stream())) {
			t.Errorf("%s: arena replay diverges from a fresh generator stream", w.Name)
		}
	}
}

// cachePort adapts a raw cache to cpu.Port/cpu.BatchPort exactly the
// way core's energy port does, minus the energy tally: one AccessBatch
// call per chunk, outcomes consumed from the Result slice. The replay
// benchmarks below exercise the real simulation hot path (cpu batch
// loop + cache) without dragging the sizing layer into this package.
type cachePort struct {
	c   *cache.Cache
	res []cache.Result
}

func (p *cachePort) Access(addr uint32, write bool) bool {
	return !p.c.Access(addr, write).Hit
}

func (p *cachePort) ExtraHitLatency() int { return 0 }

func (p *cachePort) AccessBatch(ops []cpu.PortOp, miss []bool) {
	n := len(ops)
	if cap(p.res) < n {
		p.res = make([]cache.Result, n)
	}
	cr := p.res[:n]
	p.c.AccessBatch(ops, cr)
	for i := range cr {
		miss[i] = !cr[i].Hit
	}
}

// BenchmarkArenaReplay measures the replay hot path end to end — the
// chunked cpu loop feeding both L1 simulators — from the two sweep
// sources: a fresh generator stream per replay (what every grid point
// used to do) and a cursor over the shared decode-once slab. The gap
// between the two is the generation cost decode-once removes; the
// absolute throughput is the cache.AccessBatch inner loop, the
// hottest code in the repo.
func BenchmarkArenaReplay(b *testing.B) {
	w, err := ByName("gsm_c")
	if err != nil {
		b.Fatal(err)
	}
	w = w.ScaledTo(100_000)
	cfg := cpu.Config{MemLatency: 20}
	geom := cache.Config{Sets: 32, Ways: 8, LineBytes: 32}
	replay := func(b *testing.B, s trace.Stream) {
		il1 := &cachePort{c: cache.MustNew(geom)}
		dl1 := &cachePort{c: cache.MustNew(geom)}
		if _, err := cpu.Run(cfg, il1, dl1, s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("generator", func(b *testing.B) {
		b.SetBytes(int64(w.Instructions))
		for i := 0; i < b.N; i++ {
			replay(b, w.Stream())
		}
	})
	b.Run("arena", func(b *testing.B) {
		a := NewArenaCache().Get(w)
		b.ResetTimer()
		b.SetBytes(int64(w.Instructions))
		for i := 0; i < b.N; i++ {
			replay(b, a.Cursor())
		}
	})
	// The mmap-backed slab replays the validated on-disk records,
	// decoding each cursor window on read; the gap to "arena" is the
	// decode-on-read cost the page-cache sharing buys.
	b.Run("maparena", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "gsm_c.trace")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		_, werr := trace.WriteV2(f, w.Stream(), trace.V2Options{Checksums: true, Index: true})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			b.Fatal(werr)
		}
		a, err := trace.OpenMapArena(path)
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		b.ResetTimer()
		b.SetBytes(int64(w.Instructions))
		for i := 0; i < b.N; i++ {
			replay(b, a.NewCursor())
		}
	})
}

// generated keeps BenchmarkGenerate's slabs live, so the compiler
// cannot drop the build.
var generated *trace.Arena

// BenchmarkGenerate measures slab generation per generator family: one
// registered workload of each pattern, built through ArenaCache.Get as
// a sweep builds it, at 100 000 instructions. ns/inst is the cost of
// one generated record.
func BenchmarkGenerate(b *testing.B) {
	seen := map[Pattern]bool{}
	for _, w := range Full() {
		if seen[w.Pattern] {
			continue
		}
		seen[w.Pattern] = true
		w := w.ScaledTo(100_000)
		b.Run(w.Pattern.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				generated = NewArenaCache().Get(w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.Instructions), "ns/inst")
		})
	}
}
