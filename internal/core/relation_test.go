package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// relationInsts builds n random records over a footprint a few times
// the L1, with flags drawn independently (any combination a trace file
// may carry) and use distances 0–3, in phase runs when phased.
func relationInsts(rng *rand.Rand, n int, phased bool) []trace.Inst {
	insts := make([]trace.Inst, n)
	var phase uint8
	for i := range insts {
		if phased && rng.Intn(500) == 0 {
			phase = uint8(rng.Intn(4))
		}
		f := rng.Intn(16)
		insts[i] = trace.Inst{
			PC: uint32(0x40000 + 4*rng.Intn(4096)), Addr: uint32(0x100000 + 4*rng.Intn(8192)),
			IsLoad: f&1 != 0, IsStore: f&2 != 0, IsBranch: f&4 != 0, Taken: f&8 != 0,
			UseDist: uint8(rng.Intn(4)), Phase: phase,
		}
	}
	return insts
}

// TestHPEquivalence is a metamorphic relation of the model: at HP mode
// the proposed design runs its HP ways at the baseline's voltage with no
// EDC stage in the hit path, so baseline and proposed must give equal
// cpu.Stats on every stream — every registered workload and random
// streams, flat and behind an L2, in both scenarios. Each run is a
// one-member group, so no outcome row or tally is shared between the
// two designs and a timing difference cannot hide behind one.
func TestHPEquivalence(t *testing.T) {
	alone := func(sys *System, name string, s trace.Stream) Report {
		t.Helper()
		reps, err := RunGroup(name, s, []GroupMember{{sys, ModeHP}})
		if err != nil {
			t.Fatal(err)
		}
		return reps[0]
	}
	check := func(label string, base, prop *System, open func() trace.Stream) {
		t.Helper()
		b, p := alone(base, label, open()), alone(prop, label, open())
		if !reflect.DeepEqual(b.Stats, p.Stats) {
			t.Errorf("%s: HP stats differ between designs:\n baseline %+v\n proposed %+v", label, b.Stats, p.Stats)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, sc := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		base := MustNewSystem(PaperConfig(sc, Baseline))
		prop := MustNewSystem(PaperConfig(sc, Proposed))
		for _, w := range bench.Full() {
			check(fmt.Sprintf("%v/%s", sc, w.Name), base, prop, w.ScaledTo(20_000).Stream)
		}
		tieredBase := MustNewSystem(PaperConfig(sc, Baseline).WithL2(testL2()))
		tieredProp := MustNewSystem(PaperConfig(sc, Proposed).WithL2(testL2()))
		for i := 0; i < 6; i++ {
			insts := relationInsts(rng, 1+rng.Intn(6000), i%2 == 1)
			open := func() trace.Stream { return &trace.SliceStream{Insts: insts} }
			check(fmt.Sprintf("%v/random%d", sc, i), base, prop, open)
			check(fmt.Sprintf("%v/random%d/l2", sc, i), tieredBase, tieredProp, open)
		}
	}
}
