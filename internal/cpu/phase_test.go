package cpu

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/trace"
)

// phasedInsts builds a stream alternating through phases 2 → 0 → 2 with
// a mix of loads, stores and branches, so segmentation is exercised on
// a non-zero opening phase and on a recurring id.
func phasedInsts() []trace.Inst {
	var insts []trace.Inst
	phases := []uint8{2, 0, 2}
	for seg, ph := range phases {
		for i := 0; i < 40; i++ {
			inst := trace.Inst{PC: uint32((seg*40 + i) * 4), Phase: ph}
			switch i % 4 {
			case 0:
				inst.IsLoad, inst.Addr, inst.UseDist = true, uint32(0x1000+seg*0x400+i*8), 1
			case 1:
				inst.IsStore, inst.Addr = true, uint32(0x2000+i*8)
			case 2:
				inst.IsBranch, inst.Taken = true, i%8 == 2
			}
			insts = append(insts, inst)
		}
	}
	return insts
}

// sumPhases folds the segments back together for comparison against the
// run totals.
func sumPhases(st Stats) Stats {
	var sum Stats
	for _, seg := range st.Phases {
		addCounters(&sum, seg.Stats)
	}
	return sum
}

func TestPhasedStatsSumToRunTotals(t *testing.T) {
	st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(1),
		&trace.SliceStream{Insts: phasedInsts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Phases) != 2 {
		t.Fatalf("segments %d, want 2 (ids 0 and 2)", len(st.Phases))
	}
	if st.Phases[0].Phase != 0 || st.Phases[1].Phase != 2 {
		t.Fatalf("segment ids %d, %d: not ordered by phase", st.Phases[0].Phase, st.Phases[1].Phase)
	}
	// Phase 2 ran two of the three segments.
	if got := st.Phases[1].Stats.Instructions; got != 80 {
		t.Errorf("phase 2 instructions %d, want 80", got)
	}
	total := st
	total.Phases = nil
	if got := sumPhases(st); !reflect.DeepEqual(got, total) {
		t.Errorf("phase sums %+v != run totals %+v", got, total)
	}
	for _, seg := range st.Phases {
		if seg.Stats.Phases != nil {
			t.Error("nested segmentation must be nil")
		}
	}
}

func TestUnphasedStreamHasNilPhases(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0), w.ScaledTo(5_000).Stream())
	if err != nil {
		t.Fatal(err)
	}
	if st.Phases != nil {
		t.Errorf("unphased stream produced %d segments", len(st.Phases))
	}
}

func TestPhasedBatchMatchesScalarOnSerialisedTrace(t *testing.T) {
	// End to end: phased workload → v2 file with phase ids → batched
	// replay must match the naive oracle bit-for-bit, segments included.
	w, err := bench.ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w.PhaseInsts = 3_000
	w = w.ScaledTo(25_000)

	scalar := naiveRun(Config{MemLatency: 20}, newPort(0), newPort(1), w.Stream())
	if len(scalar.Phases) < 2 {
		t.Fatalf("phased_mix produced %d segments", len(scalar.Phases))
	}
	replayed, err := Run(Config{MemLatency: 20}, newBatchPort(0), newBatchPort(1), serializeV2Phased(t, w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar, replayed) {
		t.Errorf("serialised phased replay %+v != scalar %+v", replayed, scalar)
	}
}

func serializeV2Phased(t *testing.T, w bench.Workload) *trace.Reader {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		_, err := trace.WriteV2(pw, w.Stream(), trace.V2Options{Compress: true, Phases: true})
		pw.CloseWithError(err)
	}()
	r, err := trace.NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// phaseRunInsts builds one run of n random instructions per entry of
// phases, each run carrying that phase id; runs longer than batchSize
// cross chunk boundaries.
func phaseRunInsts(seed int64, n int, phases ...uint8) []trace.Inst {
	rng := rand.New(rand.NewSource(seed))
	var insts []trace.Inst
	for _, ph := range phases {
		run := randomInsts(rng, n, false)
		for i := range run {
			run[i].Phase = ph
		}
		insts = append(insts, run...)
	}
	return insts
}

// annotated advertises phase ids on a slice stream whose ids may all be
// 0, which SliceStream's own scan would report as unannotated.
type annotated struct{ trace.SliceStream }

func (*annotated) HasPhases() bool { return true }

// TestPhaseCasesMatchNaiveOracle replays hand-built phase streams
// through one lane of flat, tiered and unified-L2 members: one opening
// in phase 2 that drops to 0 and returns, one opening in phase 255 that
// drops to 3 and returns, and an annotated stream that never leaves
// phase 0. Every member's Stats must DeepEqual the naive oracle's and
// list exactly the expected phase ids, in id order.
func TestPhaseCasesMatchNaiveOracle(t *testing.T) {
	g := cache.Config{Sets: 16, Ways: 2, LineBytes: 32}
	specs := []memberSpec{
		{il1: g, dl1: g, extra: 1},
		{il1: g, dl1: g, l2lat: 4},
		{il1: g, dl1: g, extra: 1, l2lat: 6, unified: true},
	}
	sparse := phaseRunInsts(30, 1500, 255, 3, 255)
	zero := phaseRunInsts(31, 3000, 0)
	for _, tc := range []struct {
		name string
		open func() trace.Stream
		ids  []uint8
	}{
		{"2-0-2", func() trace.Stream { return &trace.SliceStream{Insts: phasedInsts()} }, []uint8{0, 2}},
		{"255-3-255", func() trace.Stream { return &trace.SliceStream{Insts: sparse} }, []uint8{3, 255}},
		{"annotated 0", func() trace.Stream { return &annotated{trace.SliceStream{Insts: zero}} }, []uint8{0}},
	} {
		iports := make([]BatchPort, len(specs))
		dports := make([]BatchPort, len(specs))
		for k, spec := range specs {
			iports[k], dports[k] = spec.ports()
		}
		got, err := RunMulti(Config{MemLatency: 20}, mustFan(t, iports...), mustFan(t, dports...), tc.open())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for k, spec := range specs {
			label := fmt.Sprintf("%s member %d (%+v)", tc.name, k, spec)
			il1, dl1 := spec.ports()
			if want := naiveRun(Config{MemLatency: 20}, il1, dl1, tc.open()); !reflect.DeepEqual(got[k], want) {
				t.Errorf("%s:\n got  %+v\n want %+v", label, got[k], want)
			}
			var ids []uint8
			for _, seg := range got[k].Phases {
				ids = append(ids, seg.Phase)
			}
			if !reflect.DeepEqual(ids, tc.ids) {
				t.Errorf("%s: phase ids %v, want %v", label, ids, tc.ids)
			}
		}
	}
}
