package cpu

import (
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/trace"
)

// hierPort adapts a cache.Hierarchy to the BatchPort/TieredPort
// contracts — the same wiring core's hierarchy port uses, minus energy
// — plus the scalar Access the naive oracle drives.
type hierPort struct {
	h    *cache.Hierarchy
	lat  int
	cops []cache.Op
	cres []cache.Result
}

func newHierPort(l1, l2 cache.Config, shared *cache.Cache, lat int) *hierPort {
	if shared == nil {
		shared = cache.MustNew(l2)
	}
	return &hierPort{h: cache.MustNewHierarchy(cache.MustNew(l1), shared), lat: lat}
}

func (p *hierPort) Access(addr uint32, write bool) bool { return !p.h.Access(addr, write).Hit }

func (p *hierPort) ExtraHitLatency() int { return 0 }

func (p *hierPort) AccessBatch(ops []PortOp, miss []bool) {
	if cap(p.cops) < len(ops) {
		p.cops = make([]cache.Op, len(ops))
		p.cres = make([]cache.Result, len(ops))
	}
	cops, cres := p.cops[:len(ops)], p.cres[:len(ops)]
	for i, op := range ops {
		cops[i] = cache.Op{Addr: op.Addr, Write: op.Write}
	}
	p.h.AccessBatch(cops, cres)
	for i := range cres {
		miss[i] = !cres[i].Hit
	}
}

func (p *hierPort) L2Latency() int { return p.lat }

func (p *hierPort) L2FillMisses() uint64 { return p.h.FillMisses() }

var (
	tinyL1 = cache.Config{Sets: 4, Ways: 1, LineBytes: 32}
	midL2  = cache.Config{Sets: 32, Ways: 4, LineBytes: 32}
)

// TestTieredTimingExactFormula pins the two-level stall pricing to a
// hand-computed stream: 32 distinct instruction lines cycled twice
// through a 4-line IL1 over a 128-line L2. Every fetch misses the L1;
// only the first pass misses the L2.
func TestTieredTimingExactFormula(t *testing.T) {
	const lines, mem, l2lat = 32, 20, 6
	var insts []trace.Inst
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			insts = append(insts, trace.Inst{PC: uint32(i * 32)})
		}
	}
	il1 := newHierPort(tinyL1, midL2, nil, l2lat)
	dl1 := newHierPort(tinyL1, midL2, nil, l2lat)
	st, err := Run(Config{MemLatency: mem}, il1, dl1, &trace.SliceStream{Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if st.IMisses != 2*lines || st.IL2Misses != lines {
		t.Fatalf("misses I=%d IL2=%d, want %d/%d", st.IMisses, st.IL2Misses, 2*lines, lines)
	}
	wantMiss := uint64(2*lines*l2lat + lines*mem)
	if st.MissCycles != wantMiss || st.Cycles != uint64(2*lines)+wantMiss {
		t.Fatalf("cycles %d (miss %d), want %d (miss %d)",
			st.Cycles, st.MissCycles, uint64(2*lines)+wantMiss, wantMiss)
	}
}

// TestTieredScalarBatchIdentical holds the replay loop to the naive
// oracle behind a real two-level hierarchy (private L2 per side, so the
// per-side access sequences fully determine the state): Stats must be
// bit-identical, with live L2 counters, for batch and scalar-only
// streams alike.
func TestTieredScalarBatchIdentical(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(50_000)
	scalar := naiveRun(Config{MemLatency: 20},
		newHierPort(tinyL1, midL2, nil, 6), newHierPort(tinyL1, midL2, nil, 6), w.Stream())
	for _, s := range []trace.Stream{w.Stream(), scalarOnly{w.Stream()}} {
		batched, err := Run(Config{MemLatency: 20},
			newHierPort(tinyL1, midL2, nil, 6), newHierPort(tinyL1, midL2, nil, 6), s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scalar, batched) {
			t.Fatalf("batched stats %+v != scalar %+v", batched, scalar)
		}
	}
	if scalar.IL2Misses == 0 || scalar.DL2Misses == 0 {
		t.Fatalf("expected live L2 counters, got %+v", scalar)
	}
	if scalar.IL2Misses > scalar.IMisses || scalar.DL2Misses > scalar.DMisses {
		t.Fatalf("L2 misses exceed L1 misses: %+v", scalar)
	}
}

// TestRunSharedPrivatePortsMatchRun proves the round-robin rotation is
// pure scheduling: with fully private ports each core's Stats must be
// bit-identical to the naive oracle replaying its stream alone.
func TestRunSharedPrivatePortsMatchRun(t *testing.T) {
	ws := bench.Small()
	if len(ws) < 2 {
		t.Fatal("need two workloads")
	}
	w0, w1 := ws[0].ScaledTo(30_000), ws[1].ScaledTo(47_000) // uneven: one core drops out early
	hp := func() *FanPort { return mustFan(t, newHierPort(tinyL1, midL2, nil, 6)) }
	shared, err := RunShared(Config{MemLatency: 20},
		[]CorePorts{{IL1: hp(), DL1: hp()}, {IL1: hp(), DL1: hp()}},
		[]trace.Stream{w0.Stream(), w1.Stream()})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []bench.Workload{w0, w1} {
		alone := naiveRun(Config{MemLatency: 20},
			newHierPort(tinyL1, midL2, nil, 6), newHierPort(tinyL1, midL2, nil, 6), w.Stream())
		if !reflect.DeepEqual(shared[i][0], alone) {
			t.Errorf("core %d (%s): shared-run stats %+v != solo %+v", i, w.Name, shared[i][0], alone)
		}
	}
}

// TestRunSharedL2Interference drives two cores through one genuinely
// shared L2 and checks determinism (two identical schedules agree
// bit-for-bit) plus the counter invariants under cross-core thrash.
func TestRunSharedL2Interference(t *testing.T) {
	ws := bench.Small()
	w0, w1 := ws[0].ScaledTo(40_000), ws[1].ScaledTo(40_000)
	smallL2 := cache.Config{Sets: 8, Ways: 2, LineBytes: 32} // small enough to thrash
	runShared := func() [][]Stats {
		il2 := cache.MustNew(smallL2)
		dl2 := cache.MustNew(smallL2)
		hp := func(l2 *cache.Cache) *FanPort { return mustFan(t, newHierPort(tinyL1, smallL2, l2, 6)) }
		sts, err := RunShared(Config{MemLatency: 20},
			[]CorePorts{{IL1: hp(il2), DL1: hp(dl2)}, {IL1: hp(il2), DL1: hp(dl2)}},
			[]trace.Stream{w0.Stream(), w1.Stream()})
		if err != nil {
			t.Fatal(err)
		}
		return sts
	}
	a, b := runShared(), runShared()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shared-L2 replay not deterministic: %+v vs %+v", a, b)
	}
	for i := range a {
		st := a[i][0]
		if st.IL2Misses == 0 && st.DL2Misses == 0 {
			t.Errorf("core %d: no L2 misses on a thrashing shared L2: %+v", i, st)
		}
		if st.IL2Misses > st.IMisses || st.DL2Misses > st.DMisses {
			t.Errorf("core %d: L2 misses exceed L1 misses: %+v", i, st)
		}
	}
}

func TestRunSharedValidation(t *testing.T) {
	p := func() *FanPort { return mustFan(t, newHierPort(tinyL1, midL2, nil, 6)) }
	s := &trace.SliceStream{}
	if _, err := RunShared(Config{MemLatency: 20}, nil, nil); err == nil {
		t.Error("empty core list accepted")
	}
	if _, err := RunShared(Config{MemLatency: 20},
		[]CorePorts{{IL1: p(), DL1: p()}}, []trace.Stream{s, s}); err == nil {
		t.Error("core/stream count mismatch accepted")
	}
	if _, err := RunShared(Config{MemLatency: 20},
		[]CorePorts{{IL1: p()}}, []trace.Stream{s}); err == nil {
		t.Error("nil DL1 accepted")
	}
	if _, err := RunShared(Config{MemLatency: 20},
		[]CorePorts{{IL1: p(), DL1: p()}}, []trace.Stream{nil}); err == nil {
		t.Error("nil stream accepted")
	}
}
