package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/cache"
	"edcache/internal/trace"
)

// rowShare is a MultiPort over a FanPort whose members of equal cache
// state report one outcome row: Row(k) is the first member whose spec
// equals k's, the EDC latency apart (it changes timing, not outcomes).
// Each batch first fills every non-owner row with true, then drives the
// owners into their own rows and the other members into a scratch row,
// so their state and L2 counters still advance. A lane that reads a
// member's own row instead of its owner's reads every op as a miss.
type rowShare struct {
	*FanPort
	row     []int
	scratch []bool
}

func newRowShare(t *testing.T, specs []memberSpec, ports []BatchPort) *rowShare {
	r := &rowShare{FanPort: mustFan(t, ports...), row: make([]int, len(specs))}
	for k, s := range specs {
		s.extra = 0
		r.row[k] = k
		for j, a := range specs[:k] {
			if a.extra = 0; a == s {
				r.row[k] = j
				break
			}
		}
	}
	return r
}

func (r *rowShare) Row(k int) int { return r.row[k] }

func (r *rowShare) AccessBatch(_ uint8, ops []PortOp, miss [][]bool) {
	if cap(r.scratch) < len(ops) {
		r.scratch = make([]bool, len(ops))
	}
	for k, row := range r.row {
		if row != k {
			for i := range miss[k] {
				miss[k][i] = true
			}
		}
	}
	for k, m := range r.members {
		if r.row[k] == k {
			m.AccessBatch(ops, miss[k])
		} else {
			m.AccessBatch(ops, r.scratch[:len(ops)])
		}
	}
}

// TestSharedRowsMatchNaiveOracle drives lanes whose banks share outcome
// rows between members of equal cache state — flat, tiered or
// unified-L2, with EDC latencies that differ inside a row — at 1–3
// lanes, phases on and off, and requires every member's Stats to
// DeepEqual the naive oracle replaying that member alone. The banks
// leave garbage in every row they do not own, so the lane must count
// misses and load-use stalls from the owner's row.
func TestSharedRowsMatchNaiveOracle(t *testing.T) {
	g := smallGeoms()
	rng := rand.New(rand.NewSource(33))
	shared := 0
	for iter := 0; iter < 40; iter++ {
		lanes := 1 + rng.Intn(3)
		phased := iter%2 == 0
		kind := rng.Intn(3)
		// A pool of two or three shapes, drawn with repeats.
		pool := make([]memberSpec, 2+rng.Intn(2))
		for i := range pool {
			pool[i] = memberSpec{il1: g[rng.Intn(len(g))], dl1: g[rng.Intn(len(g))]}
			pool[i].dl1.LineBytes = pool[i].il1.LineBytes
			if l2 := rng.Intn(3); l2 > 0 {
				pool[i].l2lat = 3 + rng.Intn(6)
				pool[i].unified = l2 == 2
			}
		}
		specs := make([][]memberSpec, lanes)
		open := make([]func() trace.Stream, lanes)
		var readers []*trace.Reader
		cores := make([]CorePorts, lanes)
		streams := make([]trace.Stream, lanes)
		for i := range specs {
			open[i] = source(t, rng, kind, 1+rng.Intn(4000), phased, &readers)
			members := 2 + rng.Intn(5)
			iports := make([]BatchPort, members)
			dports := make([]BatchPort, members)
			for k := 0; k < members; k++ {
				spec := pool[rng.Intn(len(pool))]
				spec.extra = rng.Intn(3)
				specs[i] = append(specs[i], spec)
				iports[k], dports[k] = spec.ports()
			}
			il1, dl1 := newRowShare(t, specs[i], iports), newRowShare(t, specs[i], dports)
			for k := range il1.row {
				if il1.row[k] != k {
					shared++
				}
			}
			cores[i] = CorePorts{IL1: il1, DL1: dl1}
			streams[i] = open[i]()
		}
		name := fmt.Sprintf("iter%d/lanes=%d/kind=%d/phased=%v", iter, lanes, kind, phased)
		got, err := RunShared(Config{MemLatency: 20}, cores, streams)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range specs {
			for k, spec := range specs[i] {
				il1, dl1 := spec.ports()
				want := naiveRun(Config{MemLatency: 20}, il1, dl1, open[i]())
				if !reflect.DeepEqual(got[i][k], want) {
					t.Fatalf("%s: lane %d member %d (%+v, row %d):\n got  %+v\n want %+v",
						name, i, k, spec, cores[i].DL1.Row(k), got[i][k], want)
				}
			}
		}
		for _, r := range readers {
			if r.Err() != nil {
				t.Fatalf("%s: %v", name, r.Err())
			}
		}
	}
	if shared == 0 {
		t.Fatal("no member shared a row: the test exercised nothing")
	}
}

// badRows is a FanPort reporting a fixed, possibly invalid row map.
type badRows struct {
	*FanPort
	rows []int
}

func (b *badRows) Row(k int) int { return b.rows[k] }

// TestRowMapValidation: a lane refuses a row that is later than its
// member, out of range, or not its own owner, on either side.
func TestRowMapValidation(t *testing.T) {
	bank := func(rows ...int) MultiPort {
		ports := make([]BatchPort, len(rows))
		for i := range ports {
			ports[i] = newBatchPort(0)
		}
		return &badRows{mustFan(t, ports...), rows}
	}
	s := &trace.SliceStream{Insts: []trace.Inst{{PC: 4}}}
	for _, rows := range [][]int{{1, 1}, {-1, 0}, {0, 2, 1}, {0, 0, 1}} {
		if _, err := RunMulti(Config{MemLatency: 20}, bank(rows...), bank(make([]int, len(rows))...), s); err == nil {
			t.Errorf("IL1 rows %v accepted", rows)
		}
		if _, err := RunMulti(Config{MemLatency: 20}, bank(make([]int, len(rows))...), bank(rows...), s); err == nil {
			t.Errorf("DL1 rows %v accepted", rows)
		}
	}
	if _, err := RunMulti(Config{MemLatency: 20}, bank(0, 0, 2), bank(0, 1, 1), s); err != nil {
		t.Errorf("valid rows rejected: %v", err)
	}
}

// mixedInsts builds records whose flags are drawn independently, so
// the stream carries every combination a trace file can: a load with a
// store flag, a branch (taken or not) on a memory op, a taken flag with
// no branch, and a use distance on a store or on a non-memory record.
func mixedInsts(rng *rand.Rand, n int, phased bool) []trace.Inst {
	insts := make([]trace.Inst, n)
	var phase uint8
	for i := range insts {
		if phased && rng.Intn(300) == 0 {
			phase = uint8(rng.Intn(3))
		}
		f := rng.Intn(16)
		insts[i] = trace.Inst{
			PC: uint32(rng.Intn(2048)) &^ 3, Addr: uint32(rng.Intn(16384)),
			IsLoad: f&1 != 0, IsStore: f&2 != 0, IsBranch: f&4 != 0, Taken: f&8 != 0,
			UseDist: uint8(rng.Intn(4)), Phase: phase,
		}
	}
	return insts
}

// TestMixedFlagsMatchNaiveOracle holds the replay of mixed-flag records
// — as a slice and read back from a trace file, which stores each flag
// bit on its own — to the naive oracle, whose per-record switch is the
// load over store over branch precedence, for flat, tiered and
// unified-L2 members at EDC latencies 0–2 in one bank.
func TestMixedFlagsMatchNaiveOracle(t *testing.T) {
	g := smallGeoms()
	specs := []memberSpec{
		{il1: g[1], dl1: g[1]},
		{il1: g[1], dl1: g[1], extra: 1},
		{il1: g[0], dl1: g[2], extra: 2, l2lat: 5},
		{il1: g[2], dl1: g[0], extra: 1, l2lat: 4, unified: true},
	}
	rng := rand.New(rand.NewSource(76))
	for _, phased := range []bool{false, true} {
		insts := mixedInsts(rng, 6000, phased)
		combos := map[string]bool{}
		for _, in := range insts {
			switch {
			case in.IsLoad && in.IsStore:
				combos["load+store"] = true
			case in.IsBranch && (in.IsLoad || in.IsStore):
				combos["branch+mem"] = true
			case in.Taken && !in.IsBranch:
				combos["taken without branch"] = true
			}
			if in.IsStore && !in.IsLoad && in.UseDist > 0 {
				combos["usedist on store"] = true
			}
		}
		if len(combos) != 4 {
			t.Fatalf("mixed source covers only %v", combos)
		}
		for _, fromFile := range []bool{false, true} {
			var readers []*trace.Reader
			open := func() trace.Stream { return &trace.SliceStream{Insts: insts} }
			if fromFile {
				open = fileSource(t, insts, phased, &readers)
			}
			iports := make([]BatchPort, len(specs))
			dports := make([]BatchPort, len(specs))
			for k, spec := range specs {
				iports[k], dports[k] = spec.ports()
			}
			got, err := RunMulti(Config{MemLatency: 20}, mustFan(t, iports...), mustFan(t, dports...), open())
			if err != nil {
				t.Fatal(err)
			}
			for k, spec := range specs {
				il1, dl1 := spec.ports()
				if want := naiveRun(Config{MemLatency: 20}, il1, dl1, open()); !reflect.DeepEqual(got[k], want) {
					t.Errorf("phased=%v fromFile=%v member %d (%+v):\n got  %+v\n want %+v", phased, fromFile, k, spec, got[k], want)
				}
			}
			for _, r := range readers {
				if r.Err() != nil {
					t.Fatal(r.Err())
				}
			}
		}
	}
}

// smallGeoms are the L1 shapes of the random lane tests: small enough
// that every stream sees hits, misses and write-backs.
func smallGeoms() []cache.Config {
	return []cache.Config{
		{Sets: 4, Ways: 1, LineBytes: 32},
		{Sets: 16, Ways: 2, LineBytes: 32},
		{Sets: 32, Ways: 8, LineBytes: 32},
	}
}
