package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/faults"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// naiveFunctional is the reference replay of the functional layer: one
// FunctionalCache.Load, or Store of funcStoreValue, per cache reference,
// timed by naiveStats.
func naiveFunctional(il1, dl1 *FunctionalCache, extra int, s trace.Stream) cpu.Stats {
	side := func(fc *FunctionalCache) naiveSide {
		return naiveSide{access: func(_ uint8, addr uint32, write bool) bool {
			if write {
				return !fc.Store(addr, funcStoreValue(addr))
			}
			_, hit := fc.Load(addr)
			return !hit
		}}
	}
	return naiveStats(20, extra, side(il1), side(dl1), collect(s))
}

func newFuncCaches(t *testing.T, kind ecc.Kind, fmap *faults.WayFaults) (il1, dl1 *FunctionalCache) {
	t.Helper()
	il1, err := NewFunctionalCache(32, 8, kind, nil)
	if err != nil {
		t.Fatal(err)
	}
	dl1, err = NewFunctionalCache(32, 8, kind, fmap)
	if err != nil {
		t.Fatal(err)
	}
	return il1, dl1
}

// TestReplayFunctionalBatchMatchesScalar is the functional layer's
// contract: batched replay must produce cpu.Stats — and correction
// counters — bit-identical to a naive per-access loop over
// FunctionalCache.Load/Store, with and without the extra EDC hit cycle.
func TestReplayFunctionalBatchMatchesScalar(t *testing.T) {
	w, err := bench.ByName("epic_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(20_000)
	for _, extra := range []int{0, 1} {
		iScalar, dScalar := newFuncCaches(t, ecc.KindSECDED, nil)
		scalar := naiveFunctional(iScalar, dScalar, extra, w.Stream())
		iBatch, dBatch := newFuncCaches(t, ecc.KindSECDED, nil)
		batch, err := ReplayFunctional(cpu.Config{MemLatency: 20}, iBatch, dBatch, extra, w.Stream())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar, batch) {
			t.Fatalf("extra=%d: batched functional Stats diverge from scalar:\n%+v\n%+v", extra, scalar, batch)
		}
		if scalar.Instructions != uint64(w.Instructions) {
			t.Fatalf("replayed %d instructions, want %d", scalar.Instructions, w.Instructions)
		}
		if dScalar.Uncorrectable != dBatch.Uncorrectable || dScalar.CorrectedReads != dBatch.CorrectedReads {
			t.Fatalf("extra=%d: functional counters diverge from the naive loop", extra)
		}
		if extra == 1 && scalar.LoadUseStalls == 0 {
			t.Error("extra EDC cycle produced no load-use stalls")
		}
	}
}

// TestReplayFunctionalOnFaultySilicon replays a SmallBench workload
// through a DL1 whose way carries yield-accepted hard faults: SECDED
// must repair every manifest fault transparently (no uncorrectable
// reads), on the batched path, while the stats stay bit-identical to
// the naive loop on an identically faulty die.
func TestReplayFunctionalOnFaultySilicon(t *testing.T) {
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	// Find a yield-accepted die that actually has faults (exaggerated
	// Pf, as the functional tests do).
	var fmap *faults.WayFaults
	for seed := int64(0); ; seed++ {
		m, err := faults.Generate(geom, res.ProposedPf*30, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if m.Usable(1) && m.Count() > 0 {
			fmap = m
			break
		}
	}
	w, err := bench.ByName("adpcm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(20_000)

	dies := func() (il1, dl1 *FunctionalCache) {
		il1, err := NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The fault map is read-only under replay (Apply only reads), so
		// every run can share one die.
		dl1, err = NewFunctionalCache(32, 8, ecc.KindSECDED, fmap)
		if err != nil {
			t.Fatal(err)
		}
		return il1, dl1
	}
	iNaive, dNaive := dies()
	naive := naiveFunctional(iNaive, dNaive, 1, w.Stream())
	il1, dl1 := dies()
	st, err := ReplayFunctional(cpu.Config{MemLatency: 20}, il1, dl1, 1, w.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, naive) {
		t.Fatal("faulty-die replay Stats diverge from the naive loop")
	}
	if dl1.CorrectedReads != dNaive.CorrectedReads {
		t.Error("correction counts diverge from the naive loop")
	}
	if dl1.Uncorrectable != 0 {
		t.Errorf("yield-accepted die produced %d uncorrectable reads", dl1.Uncorrectable)
	}
}

// TestReplayFunctionalGroupMatchesAlone pins the one-pass dice replay:
// over 1, 2 and 12 dice drawn at 10x the sized Pf (so some words carry
// more faults than the code corrects), each die's Stats, CorrectedReads
// and Uncorrectable must equal ReplayFunctional of that die alone with
// a fresh IL1, for SECDED and DECTED; the shared IL1 must end as the
// lone IL1 does.
func TestReplayFunctionalGroupMatchesAlone(t *testing.T) {
	w, err := bench.ByName("stencil_s")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(20_000)
	slab := bench.NewArenaCache().Get(w)
	cfg := cpu.Config{MemLatency: 20}
	var corrected, uncorrectable int // over every die, so the test is known to reach both
	for _, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		kind := s.ProposedCode()
		res, err := yield.Run(yield.PaperInput(s))
		if err != nil {
			t.Fatal(err)
		}
		check := kind.CheckBits()
		geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32 + check, TagWordBits: 26 + check}
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{1, 2, 12} {
			il1, _ := newFuncCaches(t, kind, nil)
			maps := make([]*faults.WayFaults, n)
			dl1s := make([]*FunctionalCache, n)
			for d := range maps {
				if maps[d], err = faults.Generate(geom, 10*res.ProposedPf, rng); err != nil {
					t.Fatal(err)
				}
				_, dl1s[d] = newFuncCaches(t, kind, maps[d])
			}
			sts, err := ReplayFunctionalGroup(cfg, il1, dl1s, 1, slab.Cursor())
			if err != nil {
				t.Fatal(err)
			}
			if len(sts) != n {
				t.Fatalf("%v, %d dice: %d Stats", kind, n, len(sts))
			}
			for d, m := range maps {
				aloneI, aloneD := newFuncCaches(t, kind, m)
				want, err := ReplayFunctional(cfg, aloneI, aloneD, 1, slab.Cursor())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sts[d], want) {
					t.Errorf("%v, %d dice, die %d: group Stats diverge from the die alone:\n%+v\n%+v", kind, n, d, sts[d], want)
				}
				corrected += aloneD.CorrectedReads
				uncorrectable += aloneD.Uncorrectable
				if got := dl1s[d]; got.CorrectedReads != aloneD.CorrectedReads || got.Uncorrectable != aloneD.Uncorrectable {
					t.Errorf("%v, %d dice, die %d: corrected/uncorrectable %d/%d, alone %d/%d", kind, n, d,
						got.CorrectedReads, got.Uncorrectable, aloneD.CorrectedReads, aloneD.Uncorrectable)
				}
				if il1.CorrectedReads != aloneI.CorrectedReads || il1.Uncorrectable != aloneI.Uncorrectable {
					t.Errorf("%v, %d dice: shared IL1 counters diverge from a lone IL1", kind, n)
				}
			}
		}
	}
	if corrected == 0 || uncorrectable == 0 {
		t.Errorf("the dice saw %d corrected and %d uncorrectable reads, want both", corrected, uncorrectable)
	}
	if _, err := ReplayFunctionalGroup(cfg, nil, nil, 1, slab.Cursor()); err == nil {
		t.Error("empty group accepted")
	}
}

// BenchmarkReplayFunctional measures the bit-accurate replay func-corr
// runs: stencil_s from a shared slab through a fresh functional IL1 and
// DL1s protected by each scenario's proposed code (SECDED for A, DECTED
// for B), each DL1 over a faulty way drawn at 10x the sized Pf. The
// plain cases replay one die; the -12dice cases replay a full func-corr
// task's 12 dice as one ReplayFunctionalGroup (SetBytes counts
// die-instructions, so MB/s compares across the two).
func BenchmarkReplayFunctional(b *testing.B) {
	w, err := bench.ByName("stencil_s")
	if err != nil {
		b.Fatal(err)
	}
	w = w.ScaledTo(60_000)
	slab := bench.NewArenaCache().Get(w)
	for _, s := range []yield.Scenario{yield.ScenarioA, yield.ScenarioB} {
		kind := s.ProposedCode()
		res, err := yield.Run(yield.PaperInput(s))
		if err != nil {
			b.Fatal(err)
		}
		check := kind.CheckBits()
		geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32 + check, TagWordBits: 26 + check}
		for _, dice := range []int{1, 12} {
			name := kind.String()
			if dice > 1 {
				name = fmt.Sprintf("%s-%ddice", name, dice)
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				maps := make([]*faults.WayFaults, dice)
				for d := range maps {
					if maps[d], err = faults.Generate(geom, 10*res.ProposedPf, rng); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.SetBytes(int64(dice * w.Instructions))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					il1, err := NewFunctionalCache(32, 8, kind, nil)
					if err != nil {
						b.Fatal(err)
					}
					dl1s := make([]*FunctionalCache, dice)
					for d, m := range maps {
						if dl1s[d], err = NewFunctionalCache(32, 8, kind, m); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := ReplayFunctionalGroup(cpu.Config{MemLatency: 20}, il1, dl1s, 1, slab.Cursor()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
