package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// runFetches draws n accesses in runs: each run repeats a random line
// of a footprint a few times the L1s, at its own word offsets, 1–12
// times, and about one run in eight is a store run.
func runFetches(rng *rand.Rand, n int) []cache.Op {
	var ops []cache.Op
	for len(ops) < n {
		line := uint32(0x40000 + 32*rng.Intn(2048))
		write := rng.Intn(8) == 0
		for k := 1 + rng.Intn(12); k > 0 && len(ops) < n; k-- {
			ops = append(ops, cache.Op{Addr: line + 4*uint32(rng.Intn(8)), Write: write})
		}
	}
	return ops
}

// runsOf collapses consecutive accesses to one line-byte line and of
// one kind into one op with a repeat count, and returns each run's
// first index alongside.
func runsOf(ops []cache.Op, line uint32) (runs []cache.Op, first []int) {
	for i, op := range ops {
		if n := len(runs); n > 0 && runs[n-1].Addr/line == op.Addr/line && runs[n-1].Write == op.Write {
			runs[n-1].Rep++
			continue
		}
		runs = append(runs, op)
		first = append(first, i)
	}
	return runs, first
}

// TestRunBatchMatchesExpandedAccesses is the run-length property of a
// bank that takes fetch runs: a batch of runs (cache.Op with Rep) must
// leave every slot exactly as the same accesses issued one by one do.
// Over random run streams in random batches and phases, through a group
// with way gating (ULE mode, ULE ways gated at HP), 32 B and 64 B L1
// lines and slots with one, two or no L2 tiers, it compares each
// batch's miss row (a run's entry is its first access's outcome, and
// every repeat hits), every L1 and L2 tally, and at the end each L1
// and L2 simulator — contents, dirty bits and LRU stamps — and each
// tier's fill-miss counter.
func TestRunBatchMatchesExpandedAccesses(t *testing.T) {
	gated := PaperConfig(yield.ScenarioA, Proposed)
	gated.GateULEWaysAtHP = true
	wide := PaperConfig(yield.ScenarioB, Baseline)
	wide.Sets, wide.LineBytes = 16, 64
	l2 := func(cfg Config, sets, ways int) *System {
		return MustNewSystem(cfg.WithL2(L2Config{Sets: sets, Ways: ways, LineBytes: cfg.LineBytes, Latency: 6, Protection: ecc.KindSECDED}))
	}
	members := []GroupMember{
		{l2(PaperConfig(yield.ScenarioA, Proposed), 64, 4), ModeHP},
		{l2(PaperConfig(yield.ScenarioA, Proposed), 16, 2), ModeHP},
		{l2(PaperConfig(yield.ScenarioA, Baseline), 64, 4), ModeULE},
		{MustNewSystem(gated), ModeHP},
		{l2(wide, 32, 2), ModeULE},
	}
	if plan := planGroup(members); len(plan.keys) != 4 || len(plan.tiers[0]) != 2 {
		t.Fatalf("group has %d slots, the first with %d tiers: want 4 slots, the first with 2 tiers", len(plan.keys), len(plan.tiers[0]))
	}
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 8; iter++ {
		runPort := newMultiPort(members, planGroup(members), false)
		onePort := newMultiPort(members, planGroup(members), false)
		line := uint32(runPort.RunLineBytes())
		if line != 32 {
			t.Fatalf("bank cuts runs at %d B, want the smallest L1 line, 32 B", line)
		}
		ops := runFetches(rng, 200+rng.Intn(6000))
		for start := 0; start < len(ops); {
			end := min(start+1+rng.Intn(1024), len(ops))
			phase := uint8(rng.Intn(3)) * 100
			batch := ops[start:end]
			runs, first := runsOf(batch, line)
			rowRuns, rowOne := rows(len(members), len(runs)), rows(len(members), len(batch))
			runPort.AccessBatch(phase, runs, rowRuns)
			onePort.AccessBatch(phase, batch, rowOne)
			label := fmt.Sprintf("iter %d, accesses %d..%d", iter, start, end)
			for s, k := range runPort.plan.owner {
				for r, i := range first {
					if rowRuns[k][r] != rowOne[k][i] {
						t.Fatalf("%s slot %d: run %d misses %v, its first access %v", label, s, r, rowRuns[k][r], rowOne[k][i])
					}
					for j := i + 1; j <= i+int(runs[r].Rep); j++ {
						if rowOne[k][j] {
							t.Fatalf("%s slot %d: repeat %d of run %d missed", label, s, j-i, r)
						}
					}
				}
			}
			if !reflect.DeepEqual(runPort.l1, onePort.l1) || !reflect.DeepEqual(runPort.l2, onePort.l2) {
				t.Fatalf("%s: tallies diverge:\n runs %+v %+v\n one  %+v %+v", label, runPort.l1, runPort.l2, onePort.l1, onePort.l2)
			}
			start = end
		}
		for s := range runPort.sims {
			a, b := runPort.sims[s], onePort.sims[s]
			if !reflect.DeepEqual(a.L1(), b.L1()) {
				t.Fatalf("iter %d slot %d: L1 state diverges", iter, s)
			}
			for tr := range runPort.plan.tiers[s] {
				if !reflect.DeepEqual(a.L2(tr), b.L2(tr)) || a.FillMisses(tr) != b.FillMisses(tr) {
					t.Fatalf("iter %d slot %d tier %d: L2 state or fill misses (%d vs %d) diverge", iter, s, tr, a.FillMisses(tr), b.FillMisses(tr))
				}
			}
		}
		runPort.release()
		onePort.release()
	}
}

// rows returns k fresh outcome rows of n entries.
func rows(k, n int) [][]bool {
	r := make([][]bool, k)
	for i := range r {
		r[i] = make([]bool, n)
	}
	return r
}

// bankOps and funcOps are IL1 banks that count the ops they are
// handed. Each embeds its bank, so keeps exactly the bank's own
// methods: core's bank still takes runs through it (cpu.RunPort), and
// the functional bank still takes none.
type bankOps struct {
	*multiPort
	ops int
}

func (c *bankOps) AccessBatch(phase uint8, ops []cpu.PortOp, miss [][]bool) {
	c.ops += len(ops)
	c.multiPort.AccessBatch(phase, ops, miss)
}

type funcOps struct {
	*funcBank
	ops int
}

func (c *funcOps) AccessBatch(phase uint8, ops []cpu.PortOp, miss [][]bool) {
	c.ops += len(ops)
	c.funcBank.AccessBatch(phase, ops, miss)
}

// TestIL1OpsAreFetchLineRuns pins how many ops each kind of IL1 bank
// is handed over one mediabench workload. The paper's 8-member group
// takes one op per run of consecutive fetches on one 32 B line, as a
// naive walk counts them with a new run at every replay chunk; a
// functional bank takes one op per fetch, every fetch reading its own
// word.
func TestIL1OpsAreFetchLineRuns(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(50_000)
	insts := collect(w.Stream())
	want := 0
	for i, in := range insts {
		if i%oracleChunk == 0 || in.PC/32 != insts[i-1].PC/32 {
			want++
		}
	}

	paper, _ := oracleGroups()
	plan := planGroup(paper)
	il1 := &bankOps{multiPort: newMultiPort(paper, plan, false)}
	dl1 := newMultiPort(paper, plan, true)
	defer il1.release()
	defer dl1.release()
	if _, err := cpu.RunMulti(cpu.Config{MemLatency: paper[0].Sys.cfg.MemLatency}, il1, dl1, w.Stream()); err != nil {
		t.Fatal(err)
	}
	if il1.ops != want {
		t.Errorf("paper group's IL1 bank took %d ops, want %d fetch line runs", il1.ops, want)
	}
	if 5*want > len(insts) {
		t.Errorf("%d fetch line runs over %d fetches: fewer than 5 fetches per run", want, len(insts))
	}

	fc := func() *FunctionalCache {
		c, err := NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fil1 := &funcOps{funcBank: &funcBank{fcs: []*FunctionalCache{fc()}, k: 1}}
	fdl1 := &funcBank{fcs: []*FunctionalCache{fc()}, k: 1}
	if _, err := cpu.RunMulti(cpu.Config{MemLatency: 20}, fil1, fdl1, &trace.SliceStream{Insts: insts}); err != nil {
		t.Fatal(err)
	}
	if fil1.ops != len(insts) {
		t.Errorf("functional IL1 bank took %d ops, want one per fetch: %d", fil1.ops, len(insts))
	}
}
