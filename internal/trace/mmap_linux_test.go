//go:build linux

package trace_test

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"edcache/internal/trace"
)

// liveMappings counts this process's mappings of the file at path.
func liveMappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), path)
}

// TestMapArenaUnmappedWhenUnreachable: an arena nobody closes, dropped
// with its cursors, is unmapped by the garbage collector, so a process
// that runs sweep after sweep does not accumulate mappings of its
// trace files.
func TestMapArenaUnmappedWhenUnreachable(t *testing.T) {
	path := writeTraceFile(t, randomInsts(4096, true, 3), trace.V2Options{Phases: true})
	arenas := make([]*trace.MapArena, 5)
	for i := range arenas {
		a, err := trace.OpenMapArena(path)
		if err != nil {
			t.Fatal(err)
		}
		if walked := len(a.NewCursor().NextSlice(a.Len())); walked != 4096 {
			t.Fatalf("cursor walked %d records, want 4096", walked)
		}
		arenas[i] = a
	}
	if n := liveMappings(t, path); n != len(arenas) {
		t.Fatalf("%d mappings of the file while %d arenas are live", n, len(arenas))
	}
	runtime.KeepAlive(arenas)
	deadline := time.Now().Add(5 * time.Second)
	for liveMappings(t, path) > 0 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := liveMappings(t, path); n != 0 {
		t.Errorf("%d mappings of %s still live after the arenas became unreachable", n, path)
	}
}
