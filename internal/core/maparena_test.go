package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// The MapArena differential oracle: the mmap-backed slab must be a
// drop-in replacement for the materialized one at the full-system
// level — identical Reports (stats, cycles, energy, per-phase
// segmentation) out of RunGroupArena and one-member groups for randomized
// workloads, not just identical record sequences.

// writeWorkloadTrace serialises a workload as a checksummed, indexed
// v2.1 file and returns both slab representations.
func writeWorkloadTrace(t *testing.T, w bench.Workload) (*trace.Arena, *trace.MapArena) {
	t.Helper()
	path := filepath.Join(t.TempDir(), w.Name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := trace.WriteV2(f, w.Stream(), trace.V2Options{
		ChunkRecords: 512, Phases: w.HasPhases(), Checksums: true, Index: true,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		t.Fatal(werr)
	}
	slab, err := trace.LoadArenaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := trace.OpenMapArena(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return slab, mapped
}

func TestMapArenaOracleRunGroup(t *testing.T) {
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		members := []GroupMember{
			{base, ModeHP}, {prop, ModeHP}, {base, ModeULE}, {prop, ModeULE},
		}
		for _, name := range []string{"gsm_c", "ptrchase_s", "phased_mix"} {
			w, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.ScaledTo(10_000)
			slab, mapped := writeWorkloadTrace(t, w)
			want, err := RunGroupArena(w.Name, slab, members)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunGroupArena(w.Name, mapped, members)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%s: mmap-backed group Reports diverge from slab-backed", sc, name)
			}
			for k, gm := range members {
				single, err := runOne(gm.Sys, w.Name, mapped.NewCursor(), gm.Mode)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(single, want[k]) {
					t.Errorf("%v/%s member %d: mmap one-member Report diverges from slab group", sc, name, k)
				}
			}
			if name == "phased_mix" {
				for k := range got {
					if len(got[k].Phases) == 0 {
						t.Errorf("%v member %d: mmap replay lost the per-phase segmentation", sc, k)
					}
				}
			}
		}
	}
}
