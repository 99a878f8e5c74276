package cpu

import (
	"io"
	"reflect"
	"testing"

	"edcache/internal/bench"
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

// phasePort records BeginPhase notifications on top of the plain batch
// port.
type phasePort struct {
	*batchPort
	calls []uint8
}

func (p *phasePort) BeginPhase(id uint8) { p.calls = append(p.calls, id) }

func TestPhasePortNotifiedAtBoundaries(t *testing.T) {
	il1 := &phasePort{batchPort: newBatchPort(0)}
	dl1 := &phasePort{batchPort: newBatchPort(0)}
	if _, err := Run(Config{MemLatency: 20}, il1, dl1, &trace.SliceStream{Insts: phasedInsts()}); err != nil {
		t.Fatal(err)
	}
	// Stream opens in phase 2, drops to 0, returns to 2.
	want := []uint8{2, 0, 2}
	if !reflect.DeepEqual(il1.calls, want) || !reflect.DeepEqual(dl1.calls, want) {
		t.Errorf("boundary calls il1=%v dl1=%v, want %v", il1.calls, dl1.calls, want)
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
