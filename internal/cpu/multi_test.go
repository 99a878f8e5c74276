package cpu

import (
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
)

func newBatchPortCfg(cfg cache.Config, extra int) *batchPort {
	return &batchPort{c: cache.MustNew(cfg), extra: extra}
}

// TestRunMultiMatchesRunPerMember is the single-pass engine's cpu-layer
// contract: one RunMulti pass over a stream must produce, for every
// bank member, Stats bit-identical to a standalone run of that member's
// configuration — the naive oracle, Run's specification — including
// phase segmentation on annotated streams (phased_mix) and per-member
// EDC latencies (mixed dExtra in one bank).
func TestRunMultiMatchesRunPerMember(t *testing.T) {
	type member struct {
		il1   cache.Config
		dl1   cache.Config
		extra int
	}
	members := []member{
		{cache.Config{Sets: 32, Ways: 8, LineBytes: 32}, cache.Config{Sets: 32, Ways: 8, LineBytes: 32}, 0},
		{cache.Config{Sets: 32, Ways: 8, LineBytes: 32}, cache.Config{Sets: 32, Ways: 8, LineBytes: 32}, 1},
		{cache.Config{Sets: 16, Ways: 2, LineBytes: 32}, cache.Config{Sets: 16, Ways: 4, LineBytes: 32}, 0},
		{cache.Config{Sets: 64, Ways: 4, LineBytes: 16}, cache.Config{Sets: 8, Ways: 1, LineBytes: 64}, 1},
	}
	for _, name := range []string{"gsm_c", "ptrchase_l", "phased_mix"} {
		t.Run(name, func(t *testing.T) {
			w, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w = w.ScaledTo(30_000)

			want := make([]Stats, len(members))
			for k, m := range members {
				want[k] = naiveRun(Config{MemLatency: 20},
					newBatchPortCfg(m.il1, 0), newBatchPortCfg(m.dl1, m.extra), w.Stream())
			}

			iports := make([]BatchPort, len(members))
			dports := make([]BatchPort, len(members))
			for k, m := range members {
				iports[k] = newBatchPortCfg(m.il1, 0)
				dports[k] = newBatchPortCfg(m.dl1, m.extra)
			}
			ifan, err := NewFanPort(iports...)
			if err != nil {
				t.Fatal(err)
			}
			dfan, err := NewFanPort(dports...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunMulti(Config{MemLatency: 20}, ifan, dfan, w.Stream())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(members) {
				t.Fatalf("RunMulti returned %d stats for %d members", len(got), len(members))
			}
			for k := range members {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("member %d: RunMulti stats %+v != standalone Run %+v", k, got[k], want[k])
				}
			}
		})
	}
}

func TestRunMultiValidation(t *testing.T) {
	one := func(n int) *FanPort {
		ports := make([]BatchPort, n)
		for i := range ports {
			ports[i] = newBatchPort(0)
		}
		f, err := NewFanPort(ports...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(100)
	if _, err := RunMulti(Config{MemLatency: 0}, one(1), one(1), w.Stream()); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := RunMulti(Config{MemLatency: 20}, nil, one(1), w.Stream()); err == nil {
		t.Fatal("nil IL1 bank accepted")
	}
	for _, line := range []int{0, 24} {
		if _, err := RunMulti(Config{MemLatency: 20}, &runFan{FanPort: one(1), line: line}, one(1), w.Stream()); err == nil {
			t.Fatalf("IL1 bank cutting runs at %d B accepted", line)
		}
	}
	if _, err := RunMulti(Config{MemLatency: 20}, one(2), one(3), w.Stream()); err == nil {
		t.Fatal("mismatched bank sizes accepted")
	}
	if _, err := NewFanPort(); err == nil {
		t.Fatal("empty fan accepted")
	}
	if _, err := NewFanPort(newBatchPort(0), nil); err == nil {
		t.Fatal("nil fan member accepted")
	}
}

func mustFan(t *testing.T, ports ...BatchPort) *FanPort {
	t.Helper()
	f, err := NewFanPort(ports...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// opTally is a BatchPort that counts the ops it is handed.
type opTally struct {
	*batchPort
	ops int
}

func (p *opTally) AccessBatch(ops []PortOp, miss []bool) {
	p.ops += len(ops)
	p.batchPort.AccessBatch(ops, miss)
}

// TestFanPortTakesOneOpPerFetch pins that a bank which is no RunPort is
// handed one IL1 op per fetch, with no repeats, even on a workload
// whose fetches come in long same-line runs.
func TestFanPortTakesOneOpPerFetch(t *testing.T) {
	w, err := bench.ByName("gsm_c")
	if err != nil {
		t.Fatal(err)
	}
	w = w.ScaledTo(20_000)
	il1 := &opTally{batchPort: newBatchPort(0)}
	if _, err := RunMulti(Config{MemLatency: 20}, mustFan(t, il1), mustFan(t, newBatchPort(0)), w.Stream()); err != nil {
		t.Fatal(err)
	}
	if il1.ops != w.Instructions {
		t.Errorf("IL1 took %d ops over %d fetches", il1.ops, w.Instructions)
	}
}
