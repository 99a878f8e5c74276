package bench

import (
	"math"
	"reflect"
	"testing"

	"edcache/internal/trace"
)

func TestSuiteSplitMatchesPaper(t *testing.T) {
	small := Small()
	big := Big()
	if len(small) != 4 {
		t.Errorf("SmallBench has %d workloads, want 4 (adpcm_c, adpcm_d, epic_c, epic_d)", len(small))
	}
	if len(big) != 6 {
		t.Errorf("BigBench has %d workloads, want 6 (g721, gsm, mpeg2 × c/d)", len(big))
	}
	if len(All()) != 10 {
		t.Errorf("suite has %d workloads, want 10", len(All()))
	}
	wantSmall := map[string]bool{"adpcm_c": true, "adpcm_d": true, "epic_c": true, "epic_d": true}
	for _, w := range small {
		if !wantSmall[w.Name] {
			t.Errorf("unexpected SmallBench member %q", w.Name)
		}
	}
}

func TestSmallBenchFitsULEWay(t *testing.T) {
	// The paper's premise: SmallBench working sets fit "very small cache
	// sizes (e.g., 1KB)".
	for _, w := range Small() {
		if w.DataBytes > 1024 {
			t.Errorf("%s: data working set %d B exceeds 1 KB", w.Name, w.DataBytes)
		}
		if w.CodeBytes > 1024 {
			t.Errorf("%s: code footprint %d B exceeds 1 KB", w.Name, w.CodeBytes)
		}
	}
	// And BigBench does not fit the ULE way (needs the full cache).
	for _, w := range Big() {
		if w.DataBytes <= 1024 {
			t.Errorf("%s: BigBench working set %d B fits the ULE way", w.Name, w.DataBytes)
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	w, err := ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(5000)
	if !reflect.DeepEqual(collect(w.Stream()), collect(w.Stream())) {
		t.Fatal("identical streams differ")
	}
}

// collect drains a stream in 1024-instruction windows.
func collect(s trace.Stream) []trace.Inst {
	var out []trace.Inst
	for w := s.NextSlice(1024); len(w) > 0; w = s.NextSlice(1024) {
		out = append(out, w...)
	}
	return out
}

func TestStreamLengthAndMix(t *testing.T) {
	for _, w := range All() {
		w = w.ScaledTo(50000)
		s := w.Stream()
		var n, loads, stores, branches, dist1 int
		for _, inst := range collect(s) {
			n++
			switch {
			case inst.IsLoad:
				loads++
				if inst.UseDist == 1 {
					dist1++
				}
			case inst.IsStore:
				stores++
			case inst.IsBranch:
				branches++
			}
		}
		if n != 50000 {
			t.Fatalf("%s: stream length %d", w.Name, n)
		}
		checkFrac := func(what string, got int, want float64) {
			g := float64(got) / float64(n)
			if math.Abs(g-want) > 0.02 {
				t.Errorf("%s: %s fraction %.3f, want %.3f ±0.02", w.Name, what, g, want)
			}
		}
		checkFrac("load", loads, w.LoadFrac)
		checkFrac("store", stores, w.StoreFrac)
		checkFrac("branch", branches, w.BranchFrac)
		if loads > 0 {
			g := float64(dist1) / float64(loads)
			if math.Abs(g-w.UseDist1Frac) > 0.03 {
				t.Errorf("%s: use-dist-1 fraction %.3f, want %.3f", w.Name, g, w.UseDist1Frac)
			}
		}
	}
}

func TestAddressesStayInDeclaredFootprints(t *testing.T) {
	for _, w := range All() {
		w = w.ScaledTo(20000)
		s := w.Stream()
		for _, inst := range collect(s) {
			if inst.PC < codeBase || inst.PC >= codeBase+uint32(w.CodeBytes) {
				t.Fatalf("%s: PC %#x outside code footprint", w.Name, inst.PC)
			}
			if inst.PC%4 != 0 {
				t.Fatalf("%s: misaligned PC %#x", w.Name, inst.PC)
			}
			if inst.IsLoad || inst.IsStore {
				if inst.Addr < dataBase || inst.Addr >= dataBase+uint32(w.DataBytes) {
					t.Fatalf("%s: address %#x outside working set", w.Name, inst.Addr)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mpeg2_d")
	if err != nil || w.Name != "mpeg2_d" || w.Suite != BigBench {
		t.Errorf("ByName(mpeg2_d) = %+v, %v", w, err)
	}
	if _, err := ByName("quake3"); err == nil {
		t.Error("unknown workload accepted")
	}
	if w.Instructions <= 0 {
		t.Error("ByName must return a runnable (scaled) workload")
	}
}

func TestSliceStreamHelper(t *testing.T) {
	s := &trace.SliceStream{Insts: []trace.Inst{{PC: 0}, {PC: 4}}}
	if got := trace.Count(s); got != 2 {
		t.Errorf("Count = %d", got)
	}
	s.Reset()
	if got := trace.Count(s); got != 2 {
		t.Errorf("Count after Reset = %d", got)
	}
}
