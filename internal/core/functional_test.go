package core

import (
	"math/rand"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/ecc"
	"edcache/internal/faults"
	"edcache/internal/yield"
)

// refMemory mirrors every store so reads can be checked exactly.
type refMemory map[uint32]uint32

func TestFunctionalCacheFaultFree(t *testing.T) {
	fc, err := NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refMemory{}
	rng := rand.New(rand.NewSource(90))
	for step := 0; step < 50000; step++ {
		addr := uint32(rng.Intn(4096)) &^ 3
		if rng.Intn(3) == 0 {
			v := rng.Uint32()
			fc.Store(addr, v)
			ref[addr] = v
		} else {
			got, _ := fc.Load(addr)
			if want := ref[addr]; got != want {
				t.Fatalf("step %d addr %#x: load %#x, want %#x", step, addr, got, want)
			}
		}
	}
	if fc.Uncorrectable != 0 {
		t.Errorf("fault-free run saw %d uncorrectable words", fc.Uncorrectable)
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr, want := range ref {
		if got := fc.MemWord(addr); got != want {
			t.Errorf("post-flush memory %#x = %#x, want %#x", addr, got, want)
		}
	}
}

func TestFunctionalCacheWithYieldAcceptedFaults(t *testing.T) {
	// The architecture's correctness claim, executed: on silicon whose
	// fault map passes the yield criterion (≤1 hard fault per word),
	// every load returns the stored value, with SECDED silently doing
	// the repairs — across the entire ULE working set, under eviction
	// pressure, for many dice.
	res, err := yield.Run(yield.PaperInput(yield.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 39, TagWordBits: 33}
	dice, corrected := 0, 0
	for seed := int64(0); dice < 12; seed++ {
		// Exaggerate Pf so most dice actually contain faults, but keep
		// only yield-accepted maps (the ones the fab would ship).
		fmap, err := faults.Generate(geom, res.ProposedPf*30, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !fmap.Usable(1) || fmap.Count() == 0 {
			continue
		}
		dice++
		fc, err := NewFunctionalCache(32, 8, ecc.KindSECDED, fmap)
		if err != nil {
			t.Fatal(err)
		}
		ref := refMemory{}
		rng := rand.New(rand.NewSource(1000 + seed))
		for step := 0; step < 20000; step++ {
			addr := uint32(rng.Intn(8192)) &^ 3 // 2x cache size: eviction pressure
			if rng.Intn(3) == 0 {
				v := rng.Uint32()
				fc.Store(addr, v)
				ref[addr] = v
			} else {
				got, _ := fc.Load(addr)
				if want := ref[addr]; got != want {
					t.Fatalf("die %d step %d addr %#x: load %#x, want %#x (faults=%d)",
						dice, step, addr, got, want, fmap.Count())
				}
			}
		}
		if fc.Uncorrectable != 0 {
			t.Errorf("die %d: %d uncorrectable words on a yield-accepted map", dice, fc.Uncorrectable)
		}
		corrected += fc.CorrectedReads
	}
	if corrected == 0 {
		t.Error("no corrections observed across faulty dice — the test exercised nothing")
	}
}

func TestFunctionalCacheUncodedCorrupts(t *testing.T) {
	// The counterfactual: the same faulty silicon with no coding leaks
	// corrupted data to software.
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32, TagWordBits: 26}
	fmap := faults.Empty(geom)
	fmap.Inject(faults.WordKey{Line: 0, Word: 0}, faults.BitFault{Pos: 7, Stuck: 1})
	fc, err := NewFunctionalCache(32, 8, ecc.KindNone, fmap)
	if err != nil {
		t.Fatal(err)
	}
	fc.Store(0, 0x00000000) // line 0, word 0; bit 7 stuck at 1
	got, _ := fc.Load(0)
	if got == 0 {
		t.Fatal("stuck-at fault did not corrupt the uncoded read — fault path broken")
	}
	if got != 0x80 {
		t.Errorf("corrupted value %#x, want %#x", got, 0x80)
	}
}

func TestFunctionalCacheDECTEDSurvivesSoftErrorOnFaultyWord(t *testing.T) {
	geom := faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 45, TagWordBits: 39}
	fmap := faults.Empty(geom)
	fmap.Inject(faults.WordKey{Line: 4, Word: 2}, faults.BitFault{Pos: 3, Stuck: 0})
	fc, err := NewFunctionalCache(32, 8, ecc.KindDECTED, fmap)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint32(4*32 + 2*4) // line 4, word 2
	fc.Store(addr, 0xFFFFFFFF) // bit 3 stuck-at-0 disagrees
	// Soft error on top, via the protected way's injector.
	rng := rand.New(rand.NewSource(91))
	fcWay := fc.way
	fcWay.InjectSoftError(4, 2, rng)
	got, _ := fc.Load(addr)
	if got != 0xFFFFFFFF {
		t.Fatalf("DECTED load %#x, want all-ones", got)
	}
	if fc.Uncorrectable != 0 {
		t.Error("hard+soft should be fully correctable under DECTED")
	}
}

func TestFunctionalCacheRunsWorkloadAddresses(t *testing.T) {
	// Feed real SmallBench addresses through the functional cache to
	// tie the workload generator and the functional model together.
	w, err := bench.ByName("epic_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(30000)
	fc, err := NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := refMemory{}
	for _, inst := range collect(w.Stream()) {
		switch {
		case inst.IsStore:
			fc.Store(inst.Addr, inst.Addr^0xABCD)
			ref[inst.Addr&^3] = inst.Addr ^ 0xABCD
		case inst.IsLoad:
			got, _ := fc.Load(inst.Addr)
			if want := ref[inst.Addr&^3]; got != want {
				t.Fatalf("addr %#x: %#x != %#x", inst.Addr, got, want)
			}
		}
	}
	if err := fc.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalCacheMatchesReferenceCache holds FunctionalCache's own
// line bookkeeping to an independent model of its geometry, a 1-way
// cache.Cache, over a workload's loads and stores with a Flush halfway:
// every op must hit or miss as the reference does; each reference
// write-back must leave the victim line's last stored values in memory;
// and memory must hold exactly the words of the lines written back so
// far, so a write-back the reference does not make shows up too. Just
// before the Flush a load brings in a line the workload never touches,
// so a Flush that writes back a clean line shows up as well.
func TestFunctionalCacheMatchesReferenceCache(t *testing.T) {
	const lines, wpl = 32, 8
	const spare = 0xFFFF_FFE0 // a line outside the workload
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	insts := collect(w.ScaledTo(30_000).Stream())
	for _, inst := range insts {
		if (inst.IsLoad || inst.IsStore) && inst.Addr&^(wpl*4-1) == spare {
			t.Fatalf("the workload touches the spare line %#x", spare)
		}
	}
	fc, err := NewFunctionalCache(lines, wpl, ecc.KindSECDED, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := cache.MustNew(cache.Config{Sets: lines, Ways: 1, LineBytes: wpl * 4})
	stored := map[uint32]uint32{} // last value stored per word
	backed := map[uint32]bool{}   // every line written back to memory
	checkMem := func(at int, line uint32) {
		t.Helper()
		for a := line; a < line+wpl*4; a += 4 {
			if v, ok := stored[a]; ok && fc.MemWord(a) != v {
				t.Fatalf("op %d: memory word %#x holds %#x, last stored %#x", at, a, fc.MemWord(a), v)
			}
		}
	}
	checkSize := func(at int) {
		t.Helper()
		if len(fc.mem) != wpl*len(backed) {
			t.Fatalf("op %d: memory holds %d words, want the %d of %d written-back lines", at, len(fc.mem), wpl*len(backed), len(backed))
		}
	}
	var hits, writebacks int
	access := func(at int, addr uint32, store bool) {
		t.Helper()
		want := ref.Access(addr, store)
		var hit bool
		if store {
			stored[addr] = uint32(at) ^ 0x5A5A0000
			hit = fc.Store(addr, stored[addr])
		} else {
			_, hit = fc.Load(addr)
		}
		if hit != want.Hit {
			t.Fatalf("op %d (%#x, store %v): hit %v, reference %v", at, addr, store, hit, want.Hit)
		}
		if hit {
			hits++
		}
		if want.Writeback {
			writebacks++
			backed[want.Victim] = true
			checkMem(at, want.Victim)
		}
		checkSize(at)
	}
	for i, inst := range insts {
		if i == len(insts)/2 {
			access(i, spare, false)
			ref.DrainDirty(func(line uint32) { backed[line] = true })
			if err := fc.Flush(); err != nil {
				t.Fatal(err)
			}
			for a := range stored {
				checkMem(i, a&^(wpl*4-1))
			}
			checkSize(i)
		}
		if inst.IsLoad || inst.IsStore {
			access(i, inst.Addr&^3, inst.IsStore)
		}
	}
	if hits == 0 || hits == len(insts) || writebacks == 0 {
		t.Fatalf("%d hits and %d write-backs: the workload must hit, miss and write back", hits, writebacks)
	}
}

// TestLocateAndTagMatchDivision pins the shift-and-mask address split
// against the division formulas it replaced, over seeded random
// addresses and several power-of-two geometries: locate's set and word,
// and the tag a miss fills into the protected tag word.
func TestLocateAndTagMatchDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range [][2]int{{32, 8}, {64, 4}, {16, 16}, {1, 2}} {
		lines, wpl := g[0], g[1]
		f, err := NewFunctionalCache(lines, wpl, ecc.KindSECDED, nil)
		if err != nil {
			t.Fatal(err)
		}
		lineBytes := uint32(wpl * 4)
		for i := 0; i < 2000; i++ {
			addr := rng.Uint32()
			wordAddr := addr &^ 3
			line := wordAddr &^ (lineBytes - 1)
			wantSet := int(line/lineBytes) % lines
			wantWord := int(wordAddr-line) / 4
			if set, word := f.locate(addr); set != wantSet || word != wantWord {
				t.Fatalf("%dx%d: locate(%#x) = (%d, %d), want (%d, %d)", lines, wpl, addr, set, word, wantSet, wantWord)
			}
			f.Load(wordAddr)
			wantTag := uint64(line) / uint64(lineBytes*uint32(lines)) & (1<<26 - 1)
			if tag, _ := f.way.ReadTag(wantSet); tag != wantTag {
				t.Fatalf("%dx%d: fill of %#x wrote tag %#x, want %#x", lines, wpl, addr, tag, wantTag)
			}
		}
	}
}
