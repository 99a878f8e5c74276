package bench

import (
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/trace"
)

func TestCorpusRegistration(t *testing.T) {
	if len(Corpus()) < 5 {
		t.Fatalf("corpus has %d workloads, want ≥ 5", len(Corpus()))
	}
	if got, want := len(Full()), len(All())+len(Corpus()); got != want {
		t.Errorf("Full() has %d workloads, want %d", got, want)
	}
	patterns := map[Pattern]bool{}
	names := map[string]bool{}
	for _, w := range Full() {
		if names[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
		patterns[w.Pattern] = true
		if w.Instructions <= 0 {
			t.Errorf("%s: not scaled to a runnable length", w.Name)
		}
	}
	// ≥ 5 distinct generator families beyond the paper's.
	for _, p := range []Pattern{PatternPointerChase, PatternStencil, PatternBranchy, PatternPhased, PatternAdversarial} {
		if !patterns[p] {
			t.Errorf("no corpus workload registered with pattern %v", p)
		}
	}
	// ByName resolves corpus members.
	w, err := ByName("ptrchase_s")
	if err != nil || w.Pattern != PatternPointerChase {
		t.Errorf("ByName(ptrchase_s) = %+v, %v", w, err)
	}
}

func TestCorpusSuiteInvariant(t *testing.T) {
	// SmallBench membership keeps the paper's premise: the workload
	// fits the 1 KB ULE way.
	for _, w := range Corpus() {
		if w.Suite == SmallBench && (w.DataBytes > 1024 || w.CodeBytes > 1024) {
			t.Errorf("%s: SmallBench but footprint code=%dB data=%dB", w.Name, w.CodeBytes, w.DataBytes)
		}
	}
}

func TestCorpusStreamsDeterministicAndBounded(t *testing.T) {
	for _, w := range Corpus() {
		w := w.ScaledTo(20_000)
		t.Run(w.Name, func(t *testing.T) {
			a := collect(w.Stream())
			if !reflect.DeepEqual(a, collect(w.Stream())) {
				t.Fatal("identical streams differ")
			}
			for n, ia := range a {
				if ia.PC < codeBase || ia.PC >= codeBase+uint32(w.CodeBytes) || ia.PC%4 != 0 {
					t.Fatalf("instruction %d: PC %#x outside code footprint", n, ia.PC)
				}
				if ia.IsLoad || ia.IsStore {
					if ia.Addr < dataBase || ia.Addr >= dataBase+uint32(w.DataBytes) {
						t.Fatalf("instruction %d: address %#x outside working set", n, ia.Addr)
					}
				}
			}
			if len(a) != 20_000 {
				t.Fatalf("stream length %d, want 20000", len(a))
			}
		})
	}
}

func TestCorpusBatchMatchesScalar(t *testing.T) {
	// Every generator holds the trace.Stream window contract: under a
	// seeded random sequence of window sizes each window is exactly
	// min(max, remaining) instructions, and the windows concatenate to
	// the sequence 1-instruction windows read.
	for _, w := range Full() {
		w := w.ScaledTo(5_000)
		t.Run(w.Name, func(t *testing.T) {
			var scalar []trace.Inst
			s := w.Stream()
			for one := s.NextSlice(1); len(one) > 0; one = s.NextSlice(1) {
				scalar = append(scalar, one...)
			}
			if len(scalar) != 5_000 {
				t.Fatalf("1-instruction windows read %d instructions", len(scalar))
			}
			rng := rand.New(rand.NewSource(int64(len(w.Name))))
			var got []trace.Inst
			s = w.Stream()
			for {
				max := 1 + rng.Intn(1500)
				win := s.NextSlice(max)
				if want := min(max, len(scalar)-len(got)); len(win) != want {
					t.Fatalf("after %d instructions: window of %d for max %d, want %d", len(got), len(win), max, want)
				}
				if len(win) == 0 {
					break
				}
				got = append(got, win...)
			}
			if !reflect.DeepEqual(got, scalar) {
				t.Fatal("random windows diverge from 1-instruction windows")
			}
		})
	}
}

func TestPointerChaseIsDependentChain(t *testing.T) {
	w, err := ByName("ptrchase_s")
	if err != nil {
		t.Fatal(err)
	}
	nodes := w.DataBytes / chaseNodeBytes
	w = w.ScaledTo(nodes * w.CodeBytes) // enough iterations to close the cycle
	s := w.Stream()
	seen := map[uint32]bool{}
	loads := 0
	for _, inst := range collect(s) {
		if !inst.IsLoad {
			continue
		}
		loads++
		if inst.UseDist != 1 {
			t.Fatalf("chase load with UseDist %d, want 1 (dependent chain)", inst.UseDist)
		}
		seen[inst.Addr] = true
	}
	if loads == 0 {
		t.Fatal("no loads generated")
	}
	// A single-cycle permutation must visit every node.
	if len(seen) != nodes {
		t.Errorf("chase visited %d distinct nodes, want %d (not a full cycle)", len(seen), nodes)
	}
}

func TestStencilStreamsSequentially(t *testing.T) {
	w, err := ByName("stencil_dsp")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(8_000)
	s := w.Stream()
	var stores []uint32
	for _, inst := range collect(s) {
		if inst.IsStore {
			stores = append(stores, inst.Addr)
		}
	}
	if len(stores) < 100 {
		t.Fatalf("only %d stores", len(stores))
	}
	outBase := uint32(dataBase + w.DataBytes/2)
	for i := 1; i < len(stores); i++ {
		if stores[i] != stores[i-1]+uint32(w.StrideBytes) && stores[i] != outBase {
			t.Fatalf("store %d at %#x does not stream from %#x", i, stores[i], stores[i-1])
		}
	}
}

func TestBranchyIsBranchHeavy(t *testing.T) {
	w, err := ByName("branchy_ctrl")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(40_000)
	s := w.Stream()
	branches, taken, n := 0, 0, 0
	for _, inst := range collect(s) {
		n++
		if inst.IsBranch {
			branches++
			if inst.Taken {
				taken++
			}
		}
	}
	if frac := float64(branches) / float64(n); frac < 0.2 {
		t.Errorf("branch fraction %.3f, want ≥ 0.2 (control-heavy)", frac)
	}
	// Loop trip counts guarantee both outcomes appear in bulk.
	if taken == 0 || taken == branches {
		t.Errorf("degenerate taken pattern: %d/%d", taken, branches)
	}
}

func TestPhasedShiftsWorkingSetAndCodeRegion(t *testing.T) {
	w, err := ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w.PhaseInsts = 5_000
	w = w.ScaledTo(w.PhaseInsts * phaseCount)
	s := w.Stream()
	footprint := make([]map[uint32]bool, phaseCount)
	pcs := make([]map[uint32]bool, phaseCount)
	for p := range footprint {
		footprint[p] = map[uint32]bool{}
		pcs[p] = map[uint32]bool{}
	}
	for i, inst := range collect(s) {
		p := i / w.PhaseInsts
		if inst.IsLoad || inst.IsStore {
			footprint[p][inst.Addr&^63] = true // 64 B granules
		}
		pcs[p][inst.PC] = true
	}
	// Phase 0 is the hot-reuse phase (1/8 footprint), phase 1 streams
	// the full footprint: the touched granule counts must differ
	// sharply — the working-set shift.
	if len(footprint[1]) < 4*len(footprint[0]) {
		t.Errorf("phase footprints %d vs %d granules: no working-set shift", len(footprint[0]), len(footprint[1]))
	}
	// Each phase must execute in its own code region (the annotation).
	for p := 0; p < phaseCount; p++ {
		region := uint32(w.CodeBytes / phaseCount)
		base := codeBase + uint32(p)*region
		for pc := range pcs[p] {
			if pc < base || pc >= base+region {
				t.Fatalf("phase %d executed PC %#x outside its region [%#x, %#x)", p, pc, base, base+region)
			}
		}
	}
}

func TestPhasedEmitsPhaseIDsNatively(t *testing.T) {
	w, err := ByName("phased_mix")
	if err != nil {
		t.Fatal(err)
	}
	w.PhaseInsts = 2_000
	w = w.ScaledTo(w.PhaseInsts * phaseCount * 2) // two full cycles
	s := w.Stream()
	if !s.HasPhases() {
		t.Fatal("phased stream does not advertise phases")
	}
	for i, inst := range collect(s) {
		if want := uint8((i / w.PhaseInsts) % phaseCount); inst.Phase != want {
			t.Fatalf("instruction %d: phase %d, want %d", i, inst.Phase, want)
		}
	}
}

func TestUnphasedGeneratorsStayUnannotated(t *testing.T) {
	for _, name := range []string{"gsm_c", "ptrchase_s", "stencil_s", "branchy_tight", "adversarial_l1"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.HasPhases() {
			t.Errorf("%s claims phases", name)
		}
		s := w.ScaledTo(2_000).Stream()
		if s.HasPhases() {
			t.Errorf("%s stream advertises phases", name)
		}
		for _, inst := range collect(s) {
			if inst.Phase != 0 {
				t.Fatalf("%s emitted phase %d", name, inst.Phase)
			}
		}
	}
}

func TestAdversarialMapsToOneSet(t *testing.T) {
	w, err := ByName("adversarial_l1")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(10_000)
	s := w.Stream()
	distinct := map[uint32]bool{}
	for _, inst := range collect(s) {
		if inst.IsLoad || inst.IsStore {
			if inst.Addr%uint32(w.StrideBytes) != 0 {
				t.Fatalf("address %#x not set-stride aligned", inst.Addr)
			}
			distinct[inst.Addr] = true
		}
	}
	// More distinct conflicting lines than the paper L1's 8 ways.
	if len(distinct) <= 8 {
		t.Errorf("only %d conflicting lines, want > 8 (must exceed associativity)", len(distinct))
	}
}
