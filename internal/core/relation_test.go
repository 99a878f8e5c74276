package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cpu"
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

// dupAt returns insts with a copy of insts[p] inserted right after it.
func dupAt(insts []trace.Inst, p int) []trace.Inst {
	out := append(slices.Clone(insts[:p+1]), insts[p])
	return append(out, insts[p+1:]...)
}

// dupTarget picks a record that is neither a memory op nor a branch at
// index lo or later, -1 if there is none.
func dupTarget(rng *rand.Rand, insts []trace.Inst, lo int) int {
	var cands []int
	for i := lo; i < len(insts); i++ {
		if in := insts[i]; !in.IsLoad && !in.IsStore && !in.IsBranch {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

// oneMoreFetch returns st with the counters one more fetch of a
// non-memory, non-branch record adds — an instruction, its issue cycle
// and its I access — in the run totals and in phase id's segment.
func oneMoreFetch(st cpu.Stats, id uint8) cpu.Stats {
	st.Phases = slices.Clone(st.Phases)
	for _, c := range []*cpu.Stats{&st, nil} {
		if c == nil {
			i := slices.IndexFunc(st.Phases, func(p cpu.PhaseStats) bool { return p.Phase == id })
			if i < 0 {
				break
			}
			c = &st.Phases[i].Stats
		}
		c.Instructions++
		c.Cycles++
		c.IAccesses++
	}
	return st
}

// checkOneMoreHit requires after to be before plus one fetch that hits
// the member's IL1: the Stats rise by oneMoreFetch, the L1's dynamic
// and codec energies by exactly one lookup and one data-word decode,
// and the L2 row, if any, keeps its traffic and dynamic energy.
func checkOneMoreHit(t *testing.T, label string, gm GroupMember, id uint8, before, after Report) {
	t.Helper()
	if want := oneMoreFetch(before.Stats, id); !reflect.DeepEqual(after.Stats, want) {
		t.Errorf("%s: stats after the copy\n got  %+v\n want %+v", label, after.Stats, want)
		return
	}
	s, m := gm.Sys, gm.Mode
	data, _ := s.activeCodecs(m)
	l1 := func(r Report) (dyn, edc float64) {
		n := float64(r.Stats.Instructions)
		if r.Levels != nil {
			return r.Levels[0].Dynamic * n, r.Levels[0].EDC * n
		}
		return r.EPI.CacheDynamic * n, r.EPI.EDC * n
	}
	bd, be := l1(before)
	ad, ae := l1(after)
	hit, dec := s.lookupEnergy(m), data.DecodeEnergy(s.cfg.Vcc(m))
	if math.Abs(ad-bd-hit) > 1e-9*ad || math.Abs(ae-be-dec) > 1e-9*(ae+1) {
		t.Errorf("%s: L1 dynamic energy rose by %g pJ and codec energy by %g pJ, want one hit: %g and %g", label, ad-bd, ae-be, hit, dec)
	}
	if before.Levels == nil {
		return
	}
	b2, a2 := before.Levels[1], after.Levels[1]
	if a2.Accesses != b2.Accesses || a2.Misses != b2.Misses ||
		math.Abs(a2.Dynamic*float64(after.Stats.Instructions)-b2.Dynamic*float64(before.Stats.Instructions)) > 1e-9*b2.Dynamic*float64(before.Stats.Instructions) {
		t.Errorf("%s: L2 row moved with an L1 hit:\n before %+v\n after  %+v", label, b2, a2)
	}
}

// TestFetchDuplicationRelation is a metamorphic relation of the replay
// and the energy model: inserting a copy of a record that is neither a
// memory op nor a branch right after it adds one instruction, one
// cycle and one I access, and changes no other counter, since the copy
// fetches the line its original just brought in. So the member's I-side
// dynamic energy rises by exactly one hit. It covers flat groups (the
// paper's 8 members), tiered groups with one L2 and with several, and
// cores sharing one L2 (System.RunShared), over random and generated
// streams with and without phases. Functional members are left out: a
// repeated read of a faulty word adds a correction.
//
// A unified L2 sees each replay chunk's IL1 traffic before its DL1's,
// so moving a chunk boundary may change L2 hits for reasons that have
// nothing to do with the copy. Behind an L2 the copy therefore lands in
// the stream's last, partial chunk, where it moves no boundary; flat
// members take it anywhere.
func TestFetchDuplicationRelation(t *testing.T) {
	paper, hier := oracleGroups()
	tiered := MustNewSystem(PaperConfig(yield.ScenarioB, Proposed).WithL2(testL2()))
	groups := []struct {
		name    string
		members []GroupMember
	}{
		{"paper", paper},
		{"one-l2", []GroupMember{{tiered, ModeHP}, {tiered, ModeULE}}},
		{"hier", hier},
	}
	rng := rand.New(rand.NewSource(37))
	gsm, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	var streams [][]trace.Inst
	for i := 0; i < 4; i++ {
		n := 1 + rng.Intn(5000)
		if n%oracleChunk == 0 {
			n++
		}
		streams = append(streams, relationInsts(rng, n, i%2 == 1))
	}
	streams = append(streams, collect(gsm.ScaledTo(4321).Stream()), collect(phasedWorkload(t).ScaledTo(5555).Stream()))

	open := func(insts []trace.Inst) trace.Stream { return &trace.SliceStream{Insts: insts} }
	for si, insts := range streams {
		for _, g := range groups {
			lo := 0
			if g.members[0].Sys.cfg.L2 != nil {
				lo = len(insts) / oracleChunk * oracleChunk
			}
			p := dupTarget(rng, insts, lo)
			if p < 0 {
				continue
			}
			label := fmt.Sprintf("stream %d/%s/copy of %d", si, g.name, p)
			before, err := RunGroup(label, open(insts), g.members)
			if err != nil {
				t.Fatal(err)
			}
			after, err := RunGroup(label, open(dupAt(insts, p)), g.members)
			if err != nil {
				t.Fatal(err)
			}
			for k, gm := range g.members {
				checkOneMoreHit(t, fmt.Sprintf("%s member %d", label, k), gm, insts[p].Phase, before[k], after[k])
			}
		}

		// Two cores over one L2: only the core whose stream gained the
		// copy changes, by one hit; the other core's report is unchanged.
		other := streams[(si+1)%len(streams)]
		p := dupTarget(rng, insts, len(insts)/oracleChunk*oracleChunk)
		if p < 0 {
			continue
		}
		label := fmt.Sprintf("stream %d/shared-l2/copy of %d", si, p)
		run := func(a []trace.Inst) []Report {
			reps, err := tiered.RunShared([]string{"a", "b"}, []trace.Stream{open(a), open(other)}, ModeULE)
			if err != nil {
				t.Fatal(err)
			}
			return reps
		}
		before, after := run(insts), run(dupAt(insts, p))
		checkOneMoreHit(t, label+" core 0", GroupMember{tiered, ModeULE}, insts[p].Phase, before[0], after[0])
		if !reflect.DeepEqual(before[1], after[1]) {
			t.Errorf("%s: core 1 changed:\n before %+v\n after  %+v", label, before[1], after[1])
		}
	}
}
