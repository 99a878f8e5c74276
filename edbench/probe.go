package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"edcache/internal/bench"
	"edcache/internal/cache"
	"edcache/internal/core"
	"edcache/internal/cpu"
	"edcache/internal/ecc"
	"edcache/internal/faults"
	"edcache/internal/sim"
	"edcache/internal/trace"
	"edcache/internal/yield"
)

// Geometries the experiments replay at: the paper's L1 (32 sets × 8
// ways × 32 B, also corpus-miss's full geometry) and hier-epi's default
// 128 × 8 L2.
var (
	paperL1 = cache.Config{Sets: 32, Ways: 8, LineBytes: 32}
	paperL2 = cache.Config{Sets: 128, Ways: 8, LineBytes: 32}
)

const (
	memLatency  = 20   // the paper's memory latency in cycles
	probeChunk  = 4096 // ops per cache batch
	eccSamples  = 200_000
	functionalN = 2 // sources replayed through the bit-accurate caches
)

// probeInputs are a workload's own replay inputs: its generator corpus
// at the workload's instruction count and, for trace-sweep, its files.
type probeInputs struct {
	trials  int
	seed    int64
	gens    []bench.Workload
	mapped  string // indexed phased file read through MapArena
	slab    string // indexed file read through LoadArenaFile
	gzip    string // gzip file read through the streaming Reader
	closers []func() error
}

func generatorInputs(instructions, trials int, seed int64) *probeInputs {
	in := &probeInputs{trials: trials, seed: seed}
	for _, w := range bench.Full() {
		in.gens = append(in.gens, w.ScaledTo(instructions))
	}
	return in
}

func (in *probeInputs) close() {
	for _, c := range in.closers {
		_ = c() // read-only mappings: nothing to lose
	}
}

// source is one replay input of the probe, named like the experiments'
// workload column.
type source struct {
	name  string
	suite string // corpus-miss's suite column
	slab  trace.Slab
	ops   []cache.Op // its data references
}

// timedPort is a cpu.BatchPort over one cache.Cache that keeps the time
// spent inside the port and inside the cache.
type timedPort struct {
	c       *cache.Cache
	extra   int
	ops     []cache.Op
	res     []cache.Result
	inPort  time.Duration
	inCache time.Duration
	n       int
}

func (p *timedPort) Access(addr uint32, write bool) bool {
	t := time.Now()
	r := p.c.Access(addr, write)
	d := time.Since(t)
	p.inPort += d
	p.inCache += d
	p.n++
	return !r.Hit
}

func (p *timedPort) ExtraHitLatency() int { return p.extra }

func (p *timedPort) AccessBatch(ops []cpu.PortOp, miss []bool) {
	t0 := time.Now()
	p.ops = p.ops[:0]
	for _, o := range ops {
		p.ops = append(p.ops, cache.Op{Addr: o.Addr, Write: o.Write})
	}
	if cap(p.res) < len(ops) {
		p.res = make([]cache.Result, len(ops))
	}
	res := p.res[:len(ops)]
	t1 := time.Now()
	p.c.AccessBatch(p.ops, res)
	t2 := time.Now()
	for i := range res {
		miss[i] = !res[i].Hit
	}
	p.inCache += t2.Sub(t1)
	p.inPort += time.Since(t0)
	p.n += len(ops)
}

// uleSim is a paper L1 in ULE mode: only the ULE way powered.
func uleSim() *cache.Cache {
	c := cache.MustNew(paperL1)
	for w := 0; w < paperL1.Ways-1; w++ {
		c.SetWayEnabled(w, false)
	}
	return c
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// probe replays the workload's inputs through each replay layer's
// public entry point, one layer at a time, and reports per-layer costs.
// Its counts are cross-checked against the rows the workload itself
// printed for the same inputs; a mismatch is returned as an error.
func probe(ctx context.Context, c *config, r *report, in *probeInputs, log *spanLog, results []sim.Result) error {
	var errs []error
	timed := func(name string, fn func()) time.Duration {
		start := time.Now()
		fn()
		end := time.Now()
		log.record(log.id(), 0, "probe."+name, "", start, end, 0)
		return end.Sub(start)
	}

	// bench: generator arenas.
	var sources []source
	var genDur time.Duration
	genInsts := 0
	for _, w := range in.gens {
		var a *trace.Arena
		genDur += timed("bench.gen", func() { a = bench.NewArenaCache().Get(w) })
		genInsts += a.Len()
		sources = append(sources, source{name: w.Name, suite: w.Suite.String(), slab: a})
	}
	r.add("bench.gen_ns_per_inst", nsPer(genDur, genInsts), "ns/inst", len(in.gens))
	r.add("bench.arena_mb", float64(genInsts)*float64(unsafe.Sizeof(trace.Inst{}))/1e6, "MB", len(in.gens))

	// trace: the three decode paths and both cursor kinds.
	var loadNs, mapNs, streamNs float64
	var mapped *trace.MapArena
	if in.mapped != "" {
		var la *trace.Arena
		var err error
		d := timed("trace.load", func() { la, err = trace.LoadArenaFile(in.slab) })
		if err != nil {
			return err
		}
		loadNs = nsPer(d, la.Len())
		d = timed("trace.map_open", func() { mapped, err = trace.OpenMapArena(in.mapped) })
		if err != nil {
			return err
		}
		in.closers = append(in.closers, mapped.Close)
		mapNs = nsPer(d, mapped.Len())
		n := 0
		d = timed("trace.stream", func() { n, err = streamFile(in.gzip) })
		if err != nil {
			return err
		}
		streamNs = nsPer(d, n)
		sources = append(sources,
			source{name: "trace:" + filepath.Base(in.slab), suite: "trace", slab: la},
			source{name: "trace:" + filepath.Base(in.mapped), suite: "trace", slab: mapped})
	}
	r.add("trace.load_ns_per_inst", loadNs, "ns/inst", 1)
	r.add("trace.map_open_ns_per_inst", mapNs, "ns/inst", 1)
	r.add("trace.stream_ns_per_inst", streamNs, "ns/inst", 1)
	var slabDur time.Duration
	slabInsts := 0
	for _, s := range sources {
		if _, ok := s.slab.(*trace.Arena); ok {
			n := 0
			slabDur += timed("trace.cursor.slab", func() { n = walk(s.slab.NewCursor()) })
			slabInsts += n
		}
	}
	r.add("trace.cursor_ns_per_inst.slab", nsPer(slabDur, slabInsts), "ns/inst", slabInsts)
	mmapNs := 0.0
	if mapped != nil {
		n := 0
		d := timed("trace.cursor.mmap", func() { n = walk(mapped.NewCursor()) })
		mmapNs = nsPer(d, n)
	}
	r.add("trace.cursor_ns_per_inst.mmap", mmapNs, "ns/inst", 1)

	for i := range sources {
		sources[i].ops = dataOps(sources[i].slab.NewCursor())
	}

	// cpu and cache: cpu.Run over ports wrapping the paper's L1s at HP
	// mode, the corpus experiment's scenario-A HP rows.
	var cpuSelf, inCache time.Duration
	var insts, cacheOps int
	var dMiss, dAcc uint64
	checked := 0
	for _, s := range sources {
		il1, dl1 := &timedPort{c: cache.MustNew(paperL1)}, &timedPort{c: cache.MustNew(paperL1)}
		var st cpu.Stats
		var err error
		d := timed("cpu.run", func() { st, err = cpu.Run(cpu.Config{MemLatency: memLatency}, il1, dl1, s.slab.NewCursor()) })
		if err != nil {
			return fmt.Errorf("probe cpu.Run %s: %w", s.name, err)
		}
		cpuSelf += d - il1.inPort - dl1.inPort
		inCache += il1.inCache + dl1.inCache
		cacheOps += il1.n + dl1.n
		insts += int(st.Instructions)
		dMiss += st.DMisses
		dAcc += st.DAccesses
		want, ok := resultMetric(results, "corpus", map[string]string{"scenario": "A", "mode": "HP", "workload": s.name}, "dl1_miss")
		if ok {
			checked++
			if got := pct(st.DMisses, st.DAccesses); !same(got, want) {
				errs = append(errs, fmt.Errorf("probe %s: DL1 miss %.6f%% but corpus printed %.6f%%", s.name, got, want))
			}
		}
	}
	r.add("cpu.self_ns_per_inst", nsPer(cpuSelf, insts), "ns/inst", insts)
	r.add("cache.access_ns_per_op", nsPer(inCache, cacheOps), "ns/op", cacheOps)
	r.add("cache.dl1_miss_frac", frac(float64(dMiss), float64(dAcc)), "1", int(dAcc))

	// cache: the bank, the hierarchy and the stack profile over every
	// source's data references.
	var multiDur, hierDur, stackDur time.Duration
	dataOps := 0
	for _, s := range sources {
		dataOps += len(s.ops)
		bank, err := cache.Bank(cache.MustNew(paperL1), cache.MustNew(paperL1), uleSim(), uleSim())
		if err != nil {
			return err
		}
		multiDur += timed("cache.multi", func() { multiAccess(bank, s.ops) })
		hier, err := cache.NewHierarchy(cache.MustNew(paperL1), cache.MustNew(paperL2))
		if err != nil {
			return err
		}
		hierDur += timed("cache.hier", func() { hierAccess(hier, s.ops) })
		prof := cache.MustNewStackProfile(paperL1)
		stackDur += timed("cache.stack", func() {
			for i := 0; i < len(s.ops); i += probeChunk {
				prof.AccessBatch(s.ops[i:min(i+probeChunk, len(s.ops))])
			}
		})
		params := map[string]string{"workload": s.name, "ways": "8", "suite": s.suite}
		if refs, ok := resultMetric(results, "corpus-miss", params, "refs"); ok {
			checked++
			rate, _ := resultMetric(results, "corpus-miss", params, "miss_rate")
			got := pct(prof.Misses(8), prof.Refs())
			if float64(prof.Refs()) != refs || !same(got, rate) {
				errs = append(errs, fmt.Errorf("probe %s: %d refs, miss %.6f%% but corpus-miss printed %.0f, %.6f%%",
					s.name, prof.Refs(), got, refs, rate))
			}
		}
	}
	r.add("cache.multi_ns_per_op", nsPer(multiDur, dataOps), "ns/op", dataOps)
	r.add("cache.hier_ns_per_op", nsPer(hierDur, dataOps), "ns/op", dataOps)
	r.add("cache.stack_ns_per_op", nsPer(stackDur, dataOps), "ns/op", dataOps)
	if len(results) > 0 && checked == 0 {
		errs = append(errs, fmt.Errorf("probe: no printed corpus or corpus-miss row matched a probed input"))
	}
	r.note("probe.crosschecked", fmt.Sprintf("%d rows", checked))

	// core: one design×mode group per source, and the cpu+cache replay
	// of the same arena over its deduplicated simulators (one per mode
	// and side).
	base, err := core.NewSystem(core.PaperConfig(yield.ScenarioA, core.Baseline))
	if err != nil {
		return err
	}
	prop, err := core.NewSystem(core.PaperConfig(yield.ScenarioA, core.Proposed))
	if err != nil {
		return err
	}
	members := []core.GroupMember{{Sys: base, Mode: core.ModeHP}, {Sys: base, Mode: core.ModeULE},
		{Sys: prop, Mode: core.ModeHP}, {Sys: prop, Mode: core.ModeULE}}
	var groupDur, replayDur time.Duration
	for _, s := range sources {
		d := timed("core.group", func() { _, err = core.RunGroupArena(s.name, s.slab, members) })
		if err != nil {
			return fmt.Errorf("probe RunGroupArena %s: %w", s.name, err)
		}
		groupDur += d
		il1, err := cpu.NewFanPort(&timedPort{c: cache.MustNew(paperL1)}, &timedPort{c: uleSim()})
		if err != nil {
			return err
		}
		dl1, err := cpu.NewFanPort(&timedPort{c: cache.MustNew(paperL1)}, &timedPort{c: uleSim(), extra: 1})
		if err != nil {
			return err
		}
		d = timed("cpu.runmulti", func() { _, err = cpu.RunMulti(cpu.Config{MemLatency: memLatency}, il1, dl1, s.slab.NewCursor()) })
		if err != nil {
			return fmt.Errorf("probe RunMulti %s: %w", s.name, err)
		}
		replayDur += d
	}
	r.add("core.group_ns_per_inst", nsPer(groupDur, insts), "ns/inst", insts)
	r.add("core.fold_ns_per_inst", nsPer(groupDur-replayDur, insts), "ns/inst", insts)

	var funcDur time.Duration
	funcInsts := 0
	for _, s := range sources[:min(functionalN, len(sources))] {
		il1, err := core.NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
		if err != nil {
			return err
		}
		dl1, err := core.NewFunctionalCache(32, 8, ecc.KindSECDED, nil)
		if err != nil {
			return err
		}
		var st cpu.Stats
		funcDur += timed("core.functional", func() {
			st, err = core.ReplayFunctional(cpu.Config{MemLatency: memLatency}, il1, dl1, 1, s.slab.NewCursor())
		})
		if err != nil {
			return fmt.Errorf("probe ReplayFunctional %s: %w", s.name, err)
		}
		funcInsts += int(st.Instructions)
	}
	r.add("core.functional_ns_per_inst", nsPer(funcDur, funcInsts), "ns/inst", funcInsts)

	// faults: the reliability experiment's scenario-A proposed campaign.
	check := yield.ScenarioA.ProposedCode().CheckBits()
	camp := faults.Campaign{
		Geometry:  faults.WayGeometry{Lines: 32, WordsPerLine: 8, DataWordBits: 32 + check, TagWordBits: 26 + check},
		Pf:        prop.Sizing().ProposedPf,
		Trials:    in.trials,
		Tolerable: 1,
	}
	d := timed("faults.campaign", func() { _, err = camp.Run(in.seed, procs) })
	if err != nil {
		return err
	}
	r.add("faults.campaign_ms", millis(d), "ms", in.trials)

	// ecc: decode of words carrying as many flips as the code corrects.
	for _, k := range []struct {
		kind  ecc.Kind
		name  string
		flips int
	}{{ecc.KindSECDED, "ecc.secded_decode_ns", 1}, {ecc.KindDECTED, "ecc.dected_decode_ns", 2}} {
		ns, err := decodeCost(k.kind, k.flips, in.seed, log)
		if err != nil {
			errs = append(errs, err)
		}
		r.add(k.name, ns, "ns", eccSamples)
	}
	return errors.Join(errs...)
}

func pct(n, of uint64) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func same(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// walkSum keeps walk's reads observable.
var walkSum uint32

// walk reads a cursor to its end, touching every record the way replay
// does, and returns its length.
func walk(c trace.SliceBatcher) int {
	n := 0
	var sum uint32
	for {
		s := c.NextSlice(probeChunk)
		if len(s) == 0 {
			walkSum += sum
			return n
		}
		for i := range s {
			sum += s[i].PC ^ s[i].Addr
		}
		n += len(s)
	}
}

// streamFile decodes a trace file through the streaming Reader.
func streamFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := trace.NewReader(bufio.NewReader(f))
	if err != nil {
		return 0, err
	}
	buf := make([]trace.Inst, probeChunk)
	n := 0
	for {
		k := rd.NextBatch(buf)
		if k == 0 {
			return n, rd.Err()
		}
		n += k
	}
}

// dataOps extracts a stream's data references in order.
func dataOps(c trace.SliceBatcher) []cache.Op {
	var ops []cache.Op
	for {
		s := c.NextSlice(probeChunk)
		if len(s) == 0 {
			return ops
		}
		for _, in := range s {
			if in.IsLoad || in.IsStore {
				ops = append(ops, cache.Op{Addr: in.Addr, Write: in.IsStore})
			}
		}
	}
}

func multiAccess(bank *cache.MultiCache, ops []cache.Op) {
	res := make([][]cache.Result, bank.Len())
	for k := range res {
		res[k] = make([]cache.Result, probeChunk)
	}
	for i := 0; i < len(ops); i += probeChunk {
		bank.AccessBatch(ops[i:min(i+probeChunk, len(ops))], res)
	}
}

func hierAccess(h *cache.Hierarchy, ops []cache.Op) {
	res := make([]cache.Result, probeChunk)
	for i := 0; i < len(ops); i += probeChunk {
		h.AccessBatch(ops[i:min(i+probeChunk, len(ops))], res)
	}
}

// decodeCost times Decode over correctable words and checks every
// decode returns the encoded data.
func decodeCost(kind ecc.Kind, flips int, seed int64, log *spanLog) (float64, error) {
	codec := ecc.MustNew(kind, 32)
	bits := ecc.TotalBits(codec)
	rng := rand.New(rand.NewSource(seed))
	data := make([]uint64, eccSamples)
	words := make([]uint64, eccSamples)
	for i := range words {
		data[i] = uint64(rng.Uint32())
		w := codec.Encode(data[i])
		for _, b := range rng.Perm(bits)[:flips] {
			w ^= 1 << uint(b)
		}
		words[i] = w
	}
	bad := 0
	start := time.Now()
	for i, w := range words {
		if got, _ := codec.Decode(w); got != data[i] {
			bad++
		}
	}
	end := time.Now()
	log.record(log.id(), 0, "probe.ecc:"+kind.String(), "", start, end, 0)
	if bad > 0 {
		return 0, fmt.Errorf("probe %v: %d of %d correctable words decoded wrong", kind, bad, eccSamples)
	}
	return nsPer(end.Sub(start), eccSamples), nil
}
