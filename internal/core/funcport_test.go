package core

import (
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

// scalarOnly hides a stream's batch capability so replay takes the
// trace.Fill fallback.
type scalarOnly struct{ s trace.Stream }

func (s scalarOnly) Next() (trace.Inst, bool) { return s.s.Next() }

// naiveFunctional is the reference replay of the functional layer: one
// FunctionalCache.Load, or Store of funcStoreValue, per cache reference,
// timed by naiveStats.
func naiveFunctional(il1, dl1 *FunctionalCache, extra int, s trace.Stream) cpu.Stats {
	side := func(fc *FunctionalCache) naiveSide {
		return naiveSide{access: func(addr uint32, write bool) bool {
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
// the naive loop on an identically faulty die, for batch and
// scalar-only streams.
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
	var dBatch *FunctionalCache
	for _, s := range []trace.Stream{w.Stream(), scalarOnly{w.Stream()}} {
		il1, dl1 := dies()
		st, err := ReplayFunctional(cpu.Config{MemLatency: 20}, il1, dl1, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, naive) {
			t.Fatal("faulty-die replay Stats diverge from the naive loop")
		}
		if dl1.CorrectedReads != dNaive.CorrectedReads {
			t.Error("correction counts diverge from the naive loop")
		}
		dBatch = dl1
	}
	if dBatch.Uncorrectable != 0 {
		t.Errorf("yield-accepted die produced %d uncorrectable reads", dBatch.Uncorrectable)
	}
}
