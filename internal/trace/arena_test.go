package trace_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"edcache/internal/trace"
)

// randomInsts builds a deterministic synthetic instruction sequence
// covering every record field, optionally phase-annotated.
func randomInsts(n int, phased bool, seed int64) []trace.Inst {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]trace.Inst, n)
	for i := range insts {
		inst := trace.Inst{PC: uint32(0x400000 + 4*i)}
		switch rng.Intn(4) {
		case 0:
			inst.IsLoad = true
			inst.Addr = rng.Uint32() &^ 3
			inst.UseDist = uint8(rng.Intn(4))
		case 1:
			inst.IsStore = true
			inst.Addr = rng.Uint32() &^ 3
		case 2:
			inst.IsBranch = true
			inst.Taken = rng.Intn(2) == 0
		}
		if phased {
			inst.Phase = uint8(i / (n/4 + 1))
		}
		insts[i] = inst
	}
	return insts
}

// drain replays a stream in windows of 1 to 64 records drawn from seed,
// so different seeds cut the sequence at different places.
func drain(s trace.Stream, seed int64) []trace.Inst {
	rng := rand.New(rand.NewSource(seed))
	var out []trace.Inst
	for {
		w := s.NextSlice(1 + rng.Intn(64))
		if len(w) == 0 {
			return out
		}
		out = append(out, w...)
	}
}

func TestArenaCursorReplaysSource(t *testing.T) {
	want := randomInsts(10_000, false, 7)
	a := trace.NewArena(&trace.SliceStream{Insts: want}, 0)
	if a.Len() != len(want) {
		t.Fatalf("arena holds %d instructions, want %d", a.Len(), len(want))
	}
	if a.HasPhases() {
		t.Error("unphased source produced a phase-annotated arena")
	}
	for seed := int64(0); seed < 3; seed++ {
		got := drain(a.Cursor(), seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cursor replay (seed %d) diverges from the source", seed)
		}
	}
	// A second cursor is independent of the first's position.
	c1, c2 := a.Cursor(), a.Cursor()
	c1.NextSlice(5000)
	if w := c2.NextSlice(1); len(w) != 1 || w[0] != want[0] {
		t.Fatal("second cursor does not start at the slab's first instruction")
	}
	c1.Reset()
	if w := c1.NextSlice(1); len(w) != 1 || w[0] != want[0] {
		t.Fatal("Reset did not rewind the cursor")
	}
}

func TestArenaInheritsPhaseAnnotation(t *testing.T) {
	insts := randomInsts(1000, true, 8)
	a := trace.NewArena(&trace.SliceStream{Insts: insts}, 0)
	if !a.HasPhases() || !a.Cursor().HasPhases() {
		t.Error("phase-annotated source lost its annotation in the arena")
	}
	// A source stamped with one regime throughout is still annotated.
	stamped := randomInsts(100, false, 9)
	for i := range stamped {
		stamped[i].Phase = 9
	}
	a = trace.NewArena(&trace.SliceStream{Insts: stamped}, 0)
	if !a.HasPhases() {
		t.Error("uniformly stamped source lost its annotation in the arena")
	}
	if a = trace.NewArena(&trace.SliceStream{Insts: randomInsts(100, false, 9)}, 0); a.HasPhases() {
		t.Error("unannotated source gained a phase annotation in the arena")
	}
}

func TestLoadArenaRoundTrips(t *testing.T) {
	insts := randomInsts(5_000, true, 11)
	cases := []struct {
		name   string
		write  func(s trace.Stream) (*bytes.Buffer, error)
		phased bool
	}{
		{"v1", func(s trace.Stream) (*bytes.Buffer, error) {
			var b bytes.Buffer
			_, err := trace.Write(&b, s)
			return &b, err
		}, false},
		{"v2", func(s trace.Stream) (*bytes.Buffer, error) {
			var b bytes.Buffer
			_, err := trace.WriteV2(&b, s, trace.V2Options{ChunkRecords: 512})
			return &b, err
		}, false},
		{"v2-gzip-phases", func(s trace.Stream) (*bytes.Buffer, error) {
			var b bytes.Buffer
			_, err := trace.WriteV2(&b, s, trace.V2Options{Compress: true, Phases: true})
			return &b, err
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := tc.write(&trace.SliceStream{Insts: insts})
			if err != nil {
				t.Fatal(err)
			}
			a, err := trace.LoadArenaFile(writeBytesFile(t, buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if a.HasPhases() != tc.phased {
				t.Fatalf("HasPhases = %v, want %v", a.HasPhases(), tc.phased)
			}
			want := insts
			if !tc.phased { // phase ids are discarded by phase-less containers
				want = make([]trace.Inst, len(insts))
				copy(want, insts)
				for i := range want {
					want[i].Phase = 0
				}
			}
			if got := drain(a.Cursor(), 2); !reflect.DeepEqual(got, want) {
				t.Fatal("arena-loaded trace diverges from the serialised stream")
			}
		})
	}
}

func TestLoadArenaRejectsCorruptContainers(t *testing.T) {
	var b bytes.Buffer
	if _, err := trace.WriteV2(&b, &trace.SliceStream{Insts: randomInsts(2000, false, 3)}, trace.V2Options{}); err != nil {
		t.Fatal(err)
	}
	full := b.Bytes()
	if _, err := trace.LoadArenaFile(writeBytesFile(t, full[:len(full)-5])); err == nil {
		t.Error("truncated v2 container loaded without error")
	}
	if _, err := trace.LoadArenaFile(writeBytesFile(t, []byte("not a trace"))); err == nil {
		t.Error("garbage loaded without error")
	}
}

func TestLoadArenaFile(t *testing.T) {
	insts := randomInsts(1234, false, 5)
	path := filepath.Join(t.TempDir(), "x.trace")
	var b bytes.Buffer
	if _, err := trace.WriteV2(&b, &trace.SliceStream{Insts: insts}, trace.V2Options{Compress: true}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := trace.LoadArenaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(insts) {
		t.Fatalf("loaded %d instructions, want %d", a.Len(), len(insts))
	}
	if _, err := trace.LoadArenaFile(filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Error("missing file loaded without error")
	}
}

// TestArenaConcurrentCursors drives many simultaneous cursors over one
// shared slab; under -race (CI runs the suite with the detector on)
// this proves the arena's concurrent-replay contract.
func TestArenaConcurrentCursors(t *testing.T) {
	want := randomInsts(20_000, true, 13)
	a := trace.NewArena(&trace.SliceStream{Insts: want}, 0)
	const replays = 16
	var wg sync.WaitGroup
	errs := make([]string, replays)
	for g := 0; g < replays; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := drain(a.Cursor(), int64(g)) // every goroutine cuts different windows
			if !reflect.DeepEqual(got, want) {
				errs[g] = "concurrent cursor replay diverged"
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}
