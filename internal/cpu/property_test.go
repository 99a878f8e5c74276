package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/cache"
	"edcache/internal/trace"
)

// batchOnly hides a stream's NextSlice, so replay copies chunks through
// NextBatch instead of viewing the backing storage.
type batchOnly struct{ s *trace.SliceStream }

func (b batchOnly) Next() (trace.Inst, bool)       { return b.s.Next() }
func (b batchOnly) NextBatch(buf []trace.Inst) int { return b.s.NextBatch(buf) }
func (b batchOnly) HasPhases() bool                { return b.s.HasPhases() }

// memberSpec is one random cache configuration of a lane.
type memberSpec struct {
	il1, dl1 cache.Config
	extra    int
	l2lat    int // 0: flat; else a private L2 per side at this latency
}

// ports builds a fresh IL1/DL1 pair for the spec; both the replay loop
// and the oracle get their own.
func (m memberSpec) ports() (il1, dl1 scalarBatchPort) {
	if m.l2lat == 0 {
		return newBatchPortCfg(m.il1, 0), newBatchPortCfg(m.dl1, m.extra)
	}
	l2 := cache.Config{Sets: 32, Ways: 4, LineBytes: m.il1.LineBytes}
	return newHierPort(m.il1, l2, nil, m.l2lat),
		&extraHierPort{newHierPort(m.dl1, cache.Config{Sets: 32, Ways: 4, LineBytes: m.dl1.LineBytes}, nil, m.l2lat), m.extra}
}

type scalarBatchPort interface {
	scalarPort
	BatchPort
}

// extraHierPort gives a hierarchy port an EDC hit latency.
type extraHierPort struct {
	*hierPort
	extra int
}

func (p *extraHierPort) ExtraHitLatency() int { return p.extra }

// randomInsts builds a random instruction mix over a small code and
// data footprint (so every geometry sees hits, misses and write-backs),
// with phase ids in runs when phased.
func randomInsts(rng *rand.Rand, n int, phased bool) []trace.Inst {
	insts := make([]trace.Inst, n)
	var phase uint8
	for i := range insts {
		if phased && rng.Intn(400) == 0 {
			phase = uint8(rng.Intn(4))
		}
		in := trace.Inst{PC: uint32(rng.Intn(2048)) &^ 3, Phase: phase}
		switch r := rng.Intn(10); {
		case r < 3:
			in.IsLoad, in.Addr, in.UseDist = true, uint32(rng.Intn(16384)), uint8(rng.Intn(4))
		case r < 5:
			in.IsStore, in.Addr = true, uint32(rng.Intn(16384))
		case r < 7:
			in.IsBranch, in.Taken = true, rng.Intn(2) == 0
		}
		insts[i] = in
	}
	return insts
}

// stream wraps insts as one of the three stream kinds the loop
// distinguishes: scalar-only (trace.Fill fallback), BatchStream, or
// SliceBatcher (zero-copy).
func stream(kind int, insts []trace.Inst) trace.Stream {
	s := &trace.SliceStream{Insts: insts}
	switch kind {
	case 0:
		return scalarOnly{s}
	case 1:
		return batchOnly{s}
	default:
		return s
	}
}

// TestReplayMatchesNaiveOracle drives the one replay loop with random
// inputs — stream kind, phases on or off, flat or tiered members, K =
// 1..4 members per lane and N = 1..3 lanes, through Run, RunMulti or
// RunShared — and requires every member's Stats to DeepEqual the naive
// oracle replaying that member's stream alone.
func TestReplayMatchesNaiveOracle(t *testing.T) {
	geoms := []cache.Config{
		{Sets: 4, Ways: 1, LineBytes: 32},
		{Sets: 16, Ways: 2, LineBytes: 32},
		{Sets: 32, Ways: 8, LineBytes: 32},
		{Sets: 8, Ways: 4, LineBytes: 64},
	}
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 60; iter++ {
		lanes := 1 + rng.Intn(3)
		members := 1 + rng.Intn(4)
		kind := rng.Intn(3)
		phased := rng.Intn(2) == 0
		specs := make([][]memberSpec, lanes)
		insts := make([][]trace.Inst, lanes)
		for i := range specs {
			insts[i] = randomInsts(rng, rng.Intn(5000), phased)
			for k := 0; k < members; k++ {
				g := geoms[rng.Intn(len(geoms))]
				spec := memberSpec{il1: g, dl1: g, extra: rng.Intn(2)}
				if rng.Intn(2) == 0 {
					spec.dl1 = geoms[rng.Intn(len(geoms))]
					spec.dl1.LineBytes = g.LineBytes
				}
				if rng.Intn(2) == 0 {
					spec.l2lat = 3 + rng.Intn(6)
				}
				specs[i] = append(specs[i], spec)
			}
		}
		name := fmt.Sprintf("iter%d/lanes=%d/k=%d/kind=%d/phased=%v", iter, lanes, members, kind, phased)

		cores := make([]CorePorts, lanes)
		streams := make([]trace.Stream, lanes)
		for i := range cores {
			iports := make([]BatchPort, members)
			dports := make([]BatchPort, members)
			for k, spec := range specs[i] {
				iports[k], dports[k] = spec.ports()
			}
			cores[i] = CorePorts{IL1: mustFan(t, iports...), DL1: mustFan(t, dports...)}
			streams[i] = stream(kind, insts[i])
		}
		var got [][]Stats
		var err error
		switch {
		case lanes == 1 && members == 1:
			var st Stats
			st, err = Run(Config{MemLatency: 20}, cores[0].IL1.(*FanPort).members[0], cores[0].DL1.(*FanPort).members[0], streams[0])
			got = [][]Stats{{st}}
		case lanes == 1:
			var sts []Stats
			sts, err = RunMulti(Config{MemLatency: 20}, cores[0].IL1, cores[0].DL1, streams[0])
			got = [][]Stats{sts}
		default:
			got, err = RunShared(Config{MemLatency: 20}, cores, streams)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range specs {
			for k, spec := range specs[i] {
				il1, dl1 := spec.ports()
				want := naiveRun(Config{MemLatency: 20}, il1, dl1, stream(kind, insts[i]))
				if !reflect.DeepEqual(got[i][k], want) {
					t.Fatalf("%s: lane %d member %d (%+v):\n got  %+v\n want %+v", name, i, k, spec, got[i][k], want)
				}
			}
		}
	}
}
