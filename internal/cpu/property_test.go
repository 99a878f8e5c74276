package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/trace"
)

// memberSpec is one random cache configuration of a lane.
type memberSpec struct {
	il1, dl1 cache.Config
	extra    int
	l2lat    int  // 0: flat; else an L2 at this latency
	unified  bool // with l2lat: one L2 behind both sides, else one per side
}

// ports builds a fresh IL1/DL1 pair for the spec; both the replay loop
// and the oracle get their own.
func (m memberSpec) ports() (il1, dl1 scalarBatchPort) {
	if m.l2lat == 0 {
		return newBatchPortCfg(m.il1, 0), newBatchPortCfg(m.dl1, m.extra)
	}
	l2 := cache.Config{Sets: 32, Ways: 4, LineBytes: m.il1.LineBytes}
	var shared *cache.Cache
	if m.unified {
		shared = cache.MustNew(l2)
	}
	return newHierPort(m.il1, l2, shared, m.l2lat), &extraHierPort{newHierPort(m.dl1, l2, shared, m.l2lat), m.extra}
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

// runFan is a FanPort that takes I-fetch line runs cut at line bytes,
// so its members see one op per run and perform it as one access
// (cache.Op's Rep). line must not exceed the members' smallest IL1
// line.
type runFan struct {
	*FanPort
	line int
}

func (r *runFan) RunLineBytes() int { return r.line }

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

// source returns a factory of fresh streams of one of three kinds: 0 a
// SliceStream over n random instructions, 1 a bench generator scaled to
// n instructions, 2 a Reader over the random instructions written in
// 11-record chunks, so its windows span chunk boundaries. Readers it
// opens are appended to readers for an end-of-test error check.
func source(t *testing.T, rng *rand.Rand, kind, n int, phased bool, readers *[]*trace.Reader) func() trace.Stream {
	switch kind {
	case 0:
		insts := randomInsts(rng, n, phased)
		return func() trace.Stream { return &trace.SliceStream{Insts: insts} }
	case 1:
		ws := bench.Full()
		w := ws[rng.Intn(len(ws))].ScaledTo(n)
		return w.Stream
	}
	return fileSource(t, randomInsts(rng, n, phased), phased, readers)
}

// fileSource writes insts to a v2 trace in 11-record chunks and returns
// a factory of Readers over it, appending each to readers.
func fileSource(t *testing.T, insts []trace.Inst, phased bool, readers *[]*trace.Reader) func() trace.Stream {
	var b bytes.Buffer
	if _, err := trace.WriteV2(&b, &trace.SliceStream{Insts: insts}, trace.V2Options{ChunkRecords: 11, Phases: phased}); err != nil {
		t.Fatal(err)
	}
	return func() trace.Stream {
		r, err := trace.NewReader(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		*readers = append(*readers, r)
		return r
	}
}

// TestReplayMatchesNaiveOracle drives the one replay loop with random
// inputs — stream kind, phases on or off, flat, tiered or unified-L2
// members, K = 1..4 members per lane and N = 1..3 lanes, through Run,
// RunMulti or RunShared, and on every odd iteration IL1 banks that take
// fetch runs, cut at the lane's smallest IL1 line or at half of it on
// every fourth — and requires every member's Stats to
// DeepEqual the naive oracle replaying that member's stream alone. A
// unified L2 sees each chunk's IL1 traffic before its DL1 traffic, so
// those members also pin every source to full batchSize windows.
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
		open := make([]func() trace.Stream, lanes)
		var readers []*trace.Reader
		for i := range specs {
			open[i] = source(t, rng, kind, rng.Intn(5000), phased, &readers)
			for k := 0; k < members; k++ {
				g := geoms[rng.Intn(len(geoms))]
				spec := memberSpec{il1: g, dl1: g, extra: rng.Intn(2)}
				if rng.Intn(2) == 0 {
					spec.dl1 = geoms[rng.Intn(len(geoms))]
					spec.dl1.LineBytes = g.LineBytes
				}
				if l2 := rng.Intn(3); l2 > 0 {
					spec.l2lat = 3 + rng.Intn(6)
					spec.unified = l2 == 2
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
			if iter%2 == 1 && lanes*members > 1 {
				line := specs[i][0].il1.LineBytes
				for _, spec := range specs[i] {
					line = min(line, spec.il1.LineBytes)
				}
				if iter%4 == 3 {
					line /= 2
				}
				cores[i].IL1 = &runFan{FanPort: cores[i].IL1.(*FanPort), line: line}
			}
			streams[i] = open[i]()
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
				want := naiveRun(Config{MemLatency: 20}, il1, dl1, open[i]())
				if !reflect.DeepEqual(got[i][k], want) {
					t.Fatalf("%s: lane %d member %d (%+v):\n got  %+v\n want %+v", name, i, k, spec, got[i][k], want)
				}
			}
		}
		for _, r := range readers {
			if r.Err() != nil {
				t.Fatalf("%s: %v", name, r.Err())
			}
		}
	}
}
