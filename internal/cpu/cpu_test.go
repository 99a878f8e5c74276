package cpu

import (
	"math"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/trace"
)

// testPort adapts a cache.Cache to BatchPort one scalar access at a
// time (the naive oracle drives Access directly).
type testPort struct {
	c     *cache.Cache
	extra int
}

func (p *testPort) Access(addr uint32, write bool) bool {
	return !p.c.Access(addr, write).Hit
}

func (p *testPort) AccessBatch(ops []PortOp, miss []bool) {
	for i, op := range ops {
		miss[i] = p.Access(op.Addr, op.Write)
	}
}

func (p *testPort) ExtraHitLatency() int { return p.extra }

func newPort(extra int) *testPort {
	return &testPort{
		c:     cache.MustNew(cache.Config{Sets: 32, Ways: 8, LineBytes: 32}),
		extra: extra,
	}
}

func TestRunValidation(t *testing.T) {
	s := &trace.SliceStream{}
	if _, err := Run(Config{MemLatency: 0}, newPort(0), newPort(0), s); err == nil {
		t.Error("zero memory latency accepted")
	}
	if _, err := Run(Config{MemLatency: 20}, nil, newPort(0), s); err == nil {
		t.Error("nil port accepted")
	}
}

func TestTimingSingleInstructions(t *testing.T) {
	// One plain instruction: 1 issue cycle + 20 IL1 cold-miss cycles.
	s := &trace.SliceStream{Insts: []trace.Inst{{PC: 0}}}
	st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 21 || st.Instructions != 1 || st.IMisses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestLoadUseStallOnlyWithExtraLatency(t *testing.T) {
	mk := func() []trace.Inst {
		return []trace.Inst{
			{PC: 0}, // warms IL1 line
			{PC: 4, IsLoad: true, Addr: 0x100, UseDist: 3},  // warms DL1 line
			{PC: 8, IsLoad: true, Addr: 0x104, UseDist: 1},  // hit, consumer next instr
			{PC: 12, IsLoad: true, Addr: 0x108, UseDist: 2}, // hit, consumer 2 away
			{PC: 16, IsLoad: true, Addr: 0x10C, UseDist: 3}, // hit, far consumer
		}
	}
	base, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0),
		&trace.SliceStream{Insts: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if base.LoadUseStalls != 0 {
		t.Errorf("baseline (1-cycle hit) stalled %d cycles", base.LoadUseStalls)
	}
	edc, err := Run(Config{MemLatency: 20}, newPort(0), newPort(1),
		&trace.SliceStream{Insts: mk()})
	if err != nil {
		t.Fatal(err)
	}
	// With +1 EDC cycle only the UseDist=1 load stalls (1 cycle).
	if edc.LoadUseStalls != 1 {
		t.Errorf("EDC config stalled %d cycles, want 1", edc.LoadUseStalls)
	}
	if edc.Cycles != base.Cycles+1 {
		t.Errorf("cycles %d vs %d", edc.Cycles, base.Cycles)
	}
}

func TestStoreMissesUseWriteAllocate(t *testing.T) {
	insts := []trace.Inst{
		{PC: 0, IsStore: true, Addr: 0x200},
		{PC: 4, IsStore: true, Addr: 0x204}, // same line: hit
	}
	st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0),
		&trace.SliceStream{Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stores != 2 || st.DMisses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestBranchCounting(t *testing.T) {
	insts := []trace.Inst{
		{PC: 0, IsBranch: true, Taken: true},
		{PC: 0, IsBranch: true, Taken: false},
		{PC: 0},
	}
	st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0),
		&trace.SliceStream{Insts: insts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Branches != 2 || st.TakenBranches != 1 {
		t.Errorf("branches %d/%d", st.TakenBranches, st.Branches)
	}
}

func TestSmallBenchNearPerfectOnFullCache(t *testing.T) {
	// SmallBench on an 8 KB cache: everything fits; miss rates must be
	// far below 1 %, so CPI approaches 1.
	for _, w := range bench.Small() {
		w = w.ScaledTo(100000)
		st, err := Run(Config{MemLatency: 20}, newPort(0), newPort(0), w.Stream())
		if err != nil {
			t.Fatal(err)
		}
		iMiss := float64(st.IMisses) / float64(st.IAccesses)
		dMiss := float64(st.DMisses) / float64(st.DAccesses)
		if iMiss > 0.005 || dMiss > 0.005 {
			t.Errorf("%s: miss rates I=%.4f D=%.4f too high for a fitting workload", w.Name, iMiss, dMiss)
		}
		if st.CPI() > 1.15 {
			t.Errorf("%s: CPI %.3f too high", w.Name, st.CPI())
		}
	}
}

func TestBigBenchMissesOnULEWayOnly(t *testing.T) {
	// BigBench on the 1 KB ULE-way configuration (1 enabled way) must
	// thrash; on the full cache it should be much healthier. This is the
	// workload-discrepancy premise of the hybrid design.
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(100000)

	full := newPort(0)
	fullI := newPort(0)
	stFull, err := Run(Config{MemLatency: 20}, fullI, full, w.Stream())
	if err != nil {
		t.Fatal(err)
	}

	one := newPort(0)
	oneI := newPort(0)
	for way := 0; way < 7; way++ {
		one.c.SetWayEnabled(way, false)
		oneI.c.SetWayEnabled(way, false)
	}
	stOne, err := Run(Config{MemLatency: 20}, oneI, one, w.Stream())
	if err != nil {
		t.Fatal(err)
	}
	fullMiss := float64(stFull.DMisses) / float64(stFull.DAccesses)
	oneMiss := float64(stOne.DMisses) / float64(stOne.DAccesses)
	if oneMiss < 3*fullMiss {
		t.Errorf("ULE-way miss rate %.4f not ≫ full-cache %.4f", oneMiss, fullMiss)
	}
	if stOne.Cycles <= stFull.Cycles {
		t.Error("thrashing configuration must be slower")
	}
}

func TestEDCSlowdownIsAboutThreePercent(t *testing.T) {
	// The paper: "Performance variation due to the extra cycle for EDC
	// encoding/decoding is negligible (around 3% increase in execution
	// time in all cases)". Run SmallBench at the ULE-way configuration
	// with and without the extra cycle.
	for _, w := range bench.Small() {
		w = w.ScaledTo(100000)
		mkPorts := func(extra int) (*testPort, *testPort) {
			i, d := newPort(0), newPort(extra)
			for way := 0; way < 7; way++ {
				i.c.SetWayEnabled(way, false)
				d.c.SetWayEnabled(way, false)
			}
			return i, d
		}
		i0, d0 := mkPorts(0)
		base, err := Run(Config{MemLatency: 20}, i0, d0, w.Stream())
		if err != nil {
			t.Fatal(err)
		}
		i1, d1 := mkPorts(1)
		edc, err := Run(Config{MemLatency: 20}, i1, d1, w.Stream())
		if err != nil {
			t.Fatal(err)
		}
		slow := float64(edc.Cycles)/float64(base.Cycles) - 1
		if slow < 0.005 || slow > 0.06 {
			t.Errorf("%s: EDC slowdown %.2f%%, want ≈3%% (0.5–6%%)", w.Name, slow*100)
		}
	}
}

func TestCPIHelper(t *testing.T) {
	s := Stats{Instructions: 100, Cycles: 150}
	if math.Abs(s.CPI()-1.5) > 1e-12 {
		t.Errorf("CPI = %g", s.CPI())
	}
	if (Stats{}).CPI() != 0 {
		t.Error("empty stats CPI must be 0")
	}
}
