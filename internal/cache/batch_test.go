package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestAccessBatchMatchesNaiveModel verifies the batch entry point
// against the naive per-line model: identical results op by op and
// identical final contents, with chunk boundaries anywhere.
func TestAccessBatchMatchesNaiveModel(t *testing.T) {
	cfg := Config{Sets: 16, Ways: 4, LineBytes: 32}
	a, b := MustNew(cfg), newNaive(cfg)
	rng := rand.New(rand.NewSource(7))

	ops := make([]Op, 10_000)
	for i := range ops {
		ops[i] = Op{Addr: uint32(rng.Intn(1 << 14)), Write: rng.Intn(4) == 0}
	}
	res := make([]Result, len(ops))
	// Batch in uneven slabs so slab boundaries are exercised.
	for start := 0; start < len(ops); {
		end := start + 1 + rng.Intn(700)
		if end > len(ops) {
			end = len(ops)
		}
		a.AccessBatch(ops[start:end], res[start:end])
		start = end
	}
	for i, op := range ops {
		want := b.access(op.Addr, op.Write)
		if res[i] != want {
			t.Fatalf("op %d (%+v): batch result %+v != naive model %+v", i, op, res[i], want)
		}
	}
	// Final states must agree too.
	for addr := uint32(0); addr < 1<<14; addr += 32 {
		if a.Contains(addr) != b.contains(addr) {
			t.Fatalf("state diverged at %#x", addr)
		}
	}
}

func TestAccessBatchShortResultBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short result buffer did not panic")
		}
	}()
	c := MustNew(Config{Sets: 4, Ways: 2, LineBytes: 32})
	c.AccessBatch(make([]Op, 4), make([]Result, 2))
}

// TestRunOpMatchesExpandedAccesses pins Op.Rep's contract on a gated
// hierarchy with two L2 tiers: an op with Rep r leaves every level
// exactly — contents, dirty bits, LRU stamps, fill-miss counters — as
// its 1+r accesses issued one by one do, and its result is the first
// access's. An Op stays 8 bytes and a Result 16.
func TestRunOpMatchesExpandedAccesses(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 8 {
		t.Fatalf("Op is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(Result{}); n != 16 {
		t.Fatalf("Result is %d bytes, want 16", n)
	}
	build := func() *Hierarchy {
		l1 := MustNew(Config{Sets: 8, Ways: 4, LineBytes: 32})
		l1.SetWayEnabled(0, false)
		return MustNewHierarchy(l1, MustNew(Config{Sets: 16, Ways: 2, LineBytes: 32}), MustNew(Config{Sets: 64, Ways: 4, LineBytes: 32}))
	}
	runs, one := build(), build()
	rng := rand.New(rand.NewSource(36))
	for batch := 0; batch < 200; batch++ {
		var ops, expanded []Op
		var first []int
		for len(ops) < 1+rng.Intn(64) {
			op := Op{Addr: uint32(rng.Intn(1<<12)) &^ 3, Write: rng.Intn(5) == 0, Rep: uint16(rng.Intn(4))}
			ops = append(ops, op)
			first = append(first, len(expanded))
			for k := 0; k <= int(op.Rep); k++ {
				expanded = append(expanded, Op{Addr: op.Addr&^31 + uint32(4*rng.Intn(8)), Write: op.Write})
			}
		}
		got, want := make([]Result, len(ops)), make([]Result, len(expanded))
		runs.AccessBatch(ops, got)
		one.AccessBatch(expanded, want)
		for i, j := range first {
			if got[i] != want[j] {
				t.Fatalf("batch %d op %d (%+v): result %+v, first access %+v", batch, i, ops[i], got[i], want[j])
			}
		}
	}
	if !reflect.DeepEqual(runs.l1, one.l1) || !reflect.DeepEqual(runs.l2s, one.l2s) || !reflect.DeepEqual(runs.fillMisses, one.fillMisses) {
		t.Fatal("hierarchy state diverges between run ops and their expanded accesses")
	}
}
