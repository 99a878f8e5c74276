// Corpus extensions: deterministic workload generators beyond the
// paper's MediaBench-calibrated suite. The ROADMAP's north star wants
// "as many scenarios as you can imagine"; these families cover the
// behaviours the paper's mix cannot reach — dependent-load chains
// (worst case for the EDC extra hit cycle), perfect spatial streaming,
// control-flow pressure, phase-shifting working sets, and a worst-case
// conflict-locality adversary. Each generator is parameterised
// (footprint, mix, phase length) through an exported constructor, and
// the registered instances live in the corpus table at the bottom of
// this file. The README's workload-corpus table documents them all.
package bench

import (
	"math/rand"

	"edcache/internal/trace"
)

// seqStream adapts a generator family's fill loop to trace.Stream
// under an instruction budget. fill writes the next len(win)
// instructions into win, carrying the generator's state from one call
// to the next, so a window boundary falls anywhere without changing
// the sequence.
type seqStream struct {
	n      int // remaining instructions
	fill   func(win []trace.Inst)
	phased bool // generator stamps phase ids
	win    []trace.Inst
}

// HasPhases implements trace.Stream.
func (s *seqStream) HasPhases() bool { return s.phased }

// NextSlice implements trace.Stream: each window is generated into the
// stream's own buffer, allocated on the first call.
func (s *seqStream) NextSlice(max int) []trace.Inst {
	n := min(max, s.n)
	if cap(s.win) < n {
		s.win = make([]trace.Inst, n)
	}
	win := s.win[:n:n]
	s.Fill(win)
	return win
}

// Fill generates the next min(len(dst), remaining) instructions
// straight into dst and returns how many it wrote. trace.NewArena
// calls it to generate a slab in place: no window buffer, no window
// copy.
func (s *seqStream) Fill(dst []trace.Inst) int {
	n := min(len(dst), s.n)
	s.fill(dst[:n])
	s.n -= n
	return n
}

// chaseNodeBytes is the node size of the pointer-chase list: a next
// pointer plus payload, like a cons cell.
const chaseNodeBytes = 16

// PointerChase builds a linked-list traversal workload over a
// dataBytes working set: a pseudo-random single-cycle permutation of
// dataBytes/16 nodes is walked forever, so every load's address depends
// on the previous load and its consumer is the next instruction
// (UseDist 1) — the pattern that maximises the EDC pipeline-stage
// slowdown. loadPeriod sets the load density: one chase load every
// loadPeriod instructions (minimum 3: load, filler, loop branch).
func PointerChase(name string, suite Suite, dataBytes, loadPeriod int, seed int64) Workload {
	if loadPeriod < 3 {
		loadPeriod = 3
	}
	if dataBytes < 2*chaseNodeBytes {
		dataBytes = 2 * chaseNodeBytes
	}
	return Workload{
		Name: name, Suite: suite, Pattern: PatternPointerChase,
		CodeBytes: 4 * loadPeriod, DataBytes: dataBytes,
		LoadFrac: 1 / float64(loadPeriod), BranchFrac: 1 / float64(loadPeriod),
		TakenFrac: 1, UseDist1Frac: 1,
		Seed: seed,
	}
}

// newChaseStream walks the permutation cycle. The loop body is
// loadPeriod instructions: the chase load, ALU filler, and a taken
// back-edge.
func newChaseStream(w Workload) trace.Stream {
	rng := rand.New(rand.NewSource(w.Seed))
	g := &chaseGen{next: cyclicPermutation(w.DataBytes/chaseNodeBytes, rng), bodyLen: w.CodeBytes / 4, pc: codeBase}
	return &seqStream{n: w.Instructions, fill: g.fill}
}

// chaseGen is the pointer chase's state: the node the next load reads
// and the position in the loop body.
type chaseGen struct {
	next     []int32
	bodyLen  int
	cur, pos int
	pc       uint32
}

func (g *chaseGen) fill(win []trace.Inst) {
	next, bodyLen, cur, pos, pc := g.next, g.bodyLen, g.cur, g.pos, g.pc
	for i := range win {
		in := trace.Inst{PC: pc}
		switch pos {
		case 0:
			in.IsLoad = true
			in.Addr = dataBase + uint32(cur*chaseNodeBytes)
			in.UseDist = 1 // the next hop needs this pointer now
			cur = int(next[cur])
		case bodyLen - 1:
			in.IsBranch, in.Taken = true, true
		}
		if pos++; pos >= bodyLen {
			pos, pc = 0, codeBase
		} else {
			pc += 4
		}
		win[i] = in
	}
	g.cur, g.pos, g.pc = cur, pos, pc
}

// cyclicPermutation returns a uniformly random single-cycle permutation
// (Sattolo's algorithm): following i → p[i] visits every node before
// returning, so the chase never degenerates into a short loop.
func cyclicPermutation(n int, rng *rand.Rand) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stencilBody is the 8-instruction stencil loop: three neighbour loads,
// a MAC pair, the output store, an index update, and the back-edge.
const stencilBody = 8

// Stencil builds a 3-point streaming stencil (out[i] = f(in[i-1],
// in[i], in[i+1])) — the DSP/filter shape: near-perfect spatial
// locality, a fixed 3-load/1-store mix, and a compulsory-miss-dominated
// cache profile. The working set splits into an input and an output
// array of dataBytes/2 each; elemBytes is the element size (the
// streaming stride).
func Stencil(name string, suite Suite, dataBytes, elemBytes int, seed int64) Workload {
	if elemBytes < 4 {
		elemBytes = 4
	}
	if dataBytes < 16*elemBytes {
		dataBytes = 16 * elemBytes
	}
	return Workload{
		Name: name, Suite: suite, Pattern: PatternStencil,
		CodeBytes: 4 * stencilBody, DataBytes: dataBytes,
		LoadFrac: 3.0 / stencilBody, StoreFrac: 1.0 / stencilBody,
		BranchFrac: 1.0 / stencilBody, TakenFrac: 1,
		StreamFrac: 1, StrideBytes: elemBytes, UseDist1Frac: 1.0 / 3,
		Seed: seed,
	}
}

func newStencilStream(w Workload) trace.Stream {
	g := &stencilGen{elem: w.StrideBytes, n: (w.DataBytes / 2) / w.StrideBytes, outBase: uint32(dataBase + w.DataBytes/2), pc: codeBase}
	return &seqStream{n: w.Instructions, fill: g.fill}
}

// stencilGen is the stencil's state: the output element i and the
// position in the loop body. The input array starts at dataBase, the
// output array n elements of elem bytes after it.
type stencilGen struct {
	elem, n int
	outBase uint32
	i, pos  int
	pc      uint32
}

func (g *stencilGen) fill(win []trace.Inst) {
	elem, n, outBase, i, pos, pc := g.elem, g.n, g.outBase, g.i, g.pos, g.pc
	at := func(i int) uint32 { return dataBase + uint32(((i+n)%n)*elem) }
	for k := range win {
		in := trace.Inst{PC: pc}
		switch pos {
		case 0:
			in.IsLoad, in.Addr, in.UseDist = true, at(i-1), 3
		case 1:
			in.IsLoad, in.Addr, in.UseDist = true, at(i), 2
		case 2:
			in.IsLoad, in.Addr, in.UseDist = true, at(i+1), 1
		case 5:
			in.IsStore, in.Addr = true, outBase+uint32(i*elem)
		case stencilBody - 1:
			in.IsBranch, in.Taken = true, true
		}
		if pos++; pos >= stencilBody {
			pos, pc = 0, codeBase
			if i++; i >= n {
				i = 0
			}
		} else {
			pc += 4
		}
		win[k] = in
	}
	g.i, g.pos, g.pc = i, pos, pc
}

// branchyBlock is the 4-instruction basic block of the control-heavy
// generator: ALU, table load, ALU, conditional back-edge.
const branchyBlock = 4

// Branchy builds control-dominated code: codeBytes of basic blocks,
// each a short loop whose trip count cycles deterministically, so one
// in four instructions is a branch (double the paper suite's densest
// mix) and the instruction footprint — not the data — is what presses
// on the cache. Loads hit a small dataBytes lookup table.
func Branchy(name string, suite Suite, codeBytes, dataBytes int, seed int64) Workload {
	if codeBytes < 4*branchyBlock*2 {
		codeBytes = 4 * branchyBlock * 2
	}
	if dataBytes < 64 {
		dataBytes = 64
	}
	return Workload{
		Name: name, Suite: suite, Pattern: PatternBranchy,
		CodeBytes: codeBytes, DataBytes: dataBytes,
		LoadFrac: 1.0 / branchyBlock, BranchFrac: 1.0 / branchyBlock,
		TakenFrac: 0.7, UseDist1Frac: 0,
		Seed: seed,
	}
}

func newBranchyStream(w Workload) trace.Stream {
	g := &branchyGen{
		rng:       rand.New(rand.NewSource(w.Seed)),
		blocks:    w.CodeBytes / (4 * branchyBlock),
		dataWords: w.DataBytes / 4,
		trips:     1,
	}
	return &seqStream{n: w.Instructions, fill: g.fill}
}

// branchyGen is the control-heavy generator's state: the current block,
// the position in it, the back-edge takes it has left and the number of
// blocks visited so far.
type branchyGen struct {
	rng               *rand.Rand
	blocks, dataWords int
	block, pos        int
	trips             int // remaining back-edge takes of the current block
	visit             int
}

func (g *branchyGen) fill(win []trace.Inst) {
	rng, blocks, dataWords := g.rng, g.blocks, g.dataWords
	block, pos, trips, visit := g.block, g.pos, g.trips, g.visit
	for i := range win {
		in := trace.Inst{PC: codeBase + uint32((block*branchyBlock+pos)*4)}
		switch pos {
		case 1:
			in.IsLoad = true
			in.Addr = dataBase + uint32(rng.Intn(dataWords))*4
			in.UseDist = 2 + uint8(visit%2)
		case branchyBlock - 1:
			in.IsBranch = true
			in.Taken = trips > 0
		}
		if pos++; pos >= branchyBlock {
			pos = 0
			if trips > 0 {
				trips-- // back-edge taken: re-run this block
			} else {
				visit++
				block = (block + 1) % blocks
				// Trip counts cycle 1..6, deterministically skewed
				// per block so the taken/not-taken mix varies.
				trips = 1 + (visit*7+block*3)%6
			}
		}
		win[i] = in
	}
	g.block, g.pos, g.trips, g.visit = block, pos, trips, visit
}

// phaseCount is the number of distinct phases a phased workload cycles
// through. Each phase gets its own PC region AND stamps its index into
// trace.Inst.Phase, so phase boundaries survive both in-memory replay
// (cpu.Stats segments per phase) and serialisation (trace v2 with the
// phase flag carries the ids byte-for-byte).
const phaseCount = 4

// phaseSpec parameterises one phase of the phased generator.
type phaseSpec struct {
	footFrac   float64 // fraction of DataBytes this phase touches
	loadFrac   float64
	storeFrac  float64
	branchFrac float64
	streamFrac float64 // streaming vs uniform-reuse references
}

// phaseSpecs cycles hot-reuse, full-footprint streaming, sparse walk,
// and cold random phases — the working-set shift a single fixed mix
// cannot express.
var phaseSpecs = [phaseCount]phaseSpec{
	{footFrac: 0.125, loadFrac: 0.25, storeFrac: 0.15, branchFrac: 0.12, streamFrac: 0.10},
	{footFrac: 1.0, loadFrac: 0.30, storeFrac: 0.10, branchFrac: 0.08, streamFrac: 0.90},
	{footFrac: 0.5, loadFrac: 0.28, storeFrac: 0.05, branchFrac: 0.10, streamFrac: 0.60},
	{footFrac: 1.0, loadFrac: 0.20, storeFrac: 0.10, branchFrac: 0.15, streamFrac: 0.0},
}

// Phased builds a multi-phase workload: every phaseInsts instructions
// the generator switches to the next of four phases, each with its own
// working-set slice, instruction mix and access style, and each
// executing in its own quarter of the code region (the phase
// annotation). It models programs whose footprint shifts at runtime —
// the scenario that stresses mode-switch and replacement policy rather
// than steady state.
func Phased(name string, suite Suite, dataBytes, phaseInsts int, seed int64) Workload {
	if dataBytes < 1024 {
		dataBytes = 1024
	}
	if phaseInsts < 1000 {
		phaseInsts = 1000
	}
	return Workload{
		Name: name, Suite: suite, Pattern: PatternPhased,
		CodeBytes: 2048, DataBytes: dataBytes,
		LoadFrac: 0.26, StoreFrac: 0.10, BranchFrac: 0.11, TakenFrac: 0.6,
		StrideBytes: 4, UseDist1Frac: 0.12,
		PhaseInsts: phaseInsts,
		Seed:       seed,
	}
}

func newPhasedStream(w Workload) trace.Stream {
	g := &phasedGen{w: w, rng: rand.New(rand.NewSource(w.Seed)), regionWords: w.CodeBytes / 4 / phaseCount, pc: codeBase}
	return &seqStream{n: w.Instructions, fill: g.fill, phased: true}
}

// phasedGen is the phased generator's state: the current phase, the
// instructions generated in it, the PC and the streaming cursor within
// the phase's footprint.
type phasedGen struct {
	w              Workload
	rng            *rand.Rand
	regionWords    int
	phase, inPhase int
	pc, stream     uint32
}

// fill generates win one phase run at a time: a phase's mix cut points,
// footprint and code region are fixed for the whole run. At a phase
// boundary the generator moves to the next phase, restarts the PC at
// that phase's region and rewinds the streaming cursor. Within a run,
// each instruction draws its class; a load then draws its load-to-use
// distance and a memory reference its address (streaming or uniform
// reuse within the phase's footprint); a branch draws whether it is
// taken, and a taken branch jumps within the phase's region.
func (g *phasedGen) fill(win []trace.Inst) {
	w, rng, regionWords := &g.w, g.rng, g.regionWords
	phase, inPhase, pc, stream := g.phase, g.inPhase, g.pc, g.stream
	stride := uint32(w.StrideBytes)
	for i := 0; i < len(win); {
		if inPhase >= w.PhaseInsts {
			inPhase = 0
			phase = (phase + 1) % phaseCount
			pc = codeBase + uint32(phase*regionWords*4)
			stream = 0
		}
		// A run ends at the phase boundary; it is at least one
		// instruction, as a PhaseInsts below 1 switches phase before
		// every instruction.
		run := max(min(len(win)-i, w.PhaseInsts-inPhase), 1)
		inPhase += run
		sp := phaseSpecs[phase]
		foot := max(int(float64(w.DataBytes)*sp.footFrac), 64)
		footWords, footEnd := foot/4, uint32(foot)
		loadCut := sp.loadFrac
		storeCut := loadCut + sp.storeFrac
		branchCut := storeCut + sp.branchFrac
		regionBase := codeBase + uint32(phase*regionWords*4)
		regionEnd := regionBase + uint32(regionWords*4)
		for _, end := i, i+run; i < end; i++ {
			in := trace.Inst{PC: pc, Phase: uint8(phase)}
			switch r := rng.Float64(); {
			case r < loadCut:
				in.IsLoad = true
				if rng.Float64() < w.UseDist1Frac {
					in.UseDist = 1
				} else {
					in.UseDist = 2 + uint8(rng.Intn(2))
				}
			case r < storeCut:
				in.IsStore = true
			case r < branchCut:
				in.IsBranch = true
				in.Taken = rng.Float64() < w.TakenFrac
			}
			if in.IsLoad || in.IsStore {
				if rng.Float64() < sp.streamFrac {
					in.Addr = dataBase + stream
					if stream += stride; stream >= footEnd {
						stream = 0
					}
				} else {
					in.Addr = dataBase + uint32(rng.Intn(footWords))*4
				}
			}
			if in.Taken {
				pc = regionBase + uint32(rng.Intn(regionWords))*4
			} else if pc += 4; pc >= regionEnd {
				pc = regionBase
			}
			win[i] = in
		}
	}
	g.phase, g.inPhase, g.pc, g.stream = phase, inPhase, pc, stream
}

// adversarialBody is the 4-instruction conflict loop: load, ALU,
// load/store, back-edge.
const adversarialBody = 4

// Adversarial builds the worst-case-locality workload: memory
// references cycle through conflictLines addresses exactly
// setStrideBytes apart, so they all index the same cache set. With
// more lines than the cache has ways and true-LRU replacement, every
// steady-state access misses — the upper bound on miss-rate-driven
// energy and time. setStrideBytes should be the target cache's
// sets × line size (1024 for the paper's L1s); every 8th memory
// reference is a store so the thrash also generates writebacks.
func Adversarial(name string, suite Suite, conflictLines, setStrideBytes int, seed int64) Workload {
	if conflictLines < 2 {
		conflictLines = 2
	}
	if setStrideBytes < 64 {
		setStrideBytes = 64
	}
	return Workload{
		Name: name, Suite: suite, Pattern: PatternAdversarial,
		CodeBytes: 4 * adversarialBody, DataBytes: conflictLines * setStrideBytes,
		LoadFrac: 2.0 / adversarialBody * 0.875, StoreFrac: 2.0 / adversarialBody * 0.125,
		BranchFrac: 1.0 / adversarialBody, TakenFrac: 1,
		StrideBytes: setStrideBytes, UseDist1Frac: 0,
		Seed: seed,
	}
}

func newAdversarialStream(w Workload) trace.Stream {
	g := &adversarialGen{stride: w.StrideBytes, lines: w.DataBytes / w.StrideBytes, pc: codeBase}
	return &seqStream{n: w.Instructions, fill: g.fill}
}

// adversarialGen is the conflict loop's state: the next conflicting
// line k, the position in the loop body and the memory references made
// so far.
type adversarialGen struct {
	stride, lines int
	k, pos, refs  int
	pc            uint32
}

func (g *adversarialGen) fill(win []trace.Inst) {
	stride, lines := g.stride, g.lines
	k, pos, refs, pc := g.k, g.pos, g.refs, g.pc
	for i := range win {
		in := trace.Inst{PC: pc}
		switch pos {
		case 0, 2:
			if refs++; refs%8 == 0 {
				in.IsStore = true
			} else {
				in.IsLoad = true
				in.UseDist = 3 // keep the EDC stage out of the picture
			}
			in.Addr = dataBase + uint32(k*stride)
			if k++; k >= lines {
				k = 0
			}
		case adversarialBody - 1:
			in.IsBranch, in.Taken = true, true
		}
		if pos++; pos >= adversarialBody {
			pos, pc = 0, codeBase
		} else {
			pc += 4
		}
		win[i] = in
	}
	g.k, g.pos, g.refs, g.pc = k, pos, refs, pc
}

// corpusWorkloads is the registered extension corpus. Suite membership
// keeps the paper's invariant: SmallBench entries fit the 1 KB ULE way
// (code and data), BigBench entries need the full cache.
var corpusWorkloads = []Workload{
	PointerChase("ptrchase_s", SmallBench, 512, 4, 201),
	PointerChase("ptrchase_l", BigBench, 8192, 4, 202),
	Stencil("stencil_s", SmallBench, 1024, 4, 203),
	Stencil("stencil_dsp", BigBench, 12288, 8, 204),
	Branchy("branchy_tight", SmallBench, 768, 256, 205),
	Branchy("branchy_ctrl", BigBench, 4096, 2048, 206),
	Phased("phased_mix", BigBench, 10240, 40_000, 207),
	Adversarial("adversarial_l1", BigBench, 12, 1024, 208),
}

// Corpus returns the extension corpus (every non-paper workload) at the
// default trace length.
func Corpus() []Workload {
	out := make([]Workload, len(corpusWorkloads))
	for i, w := range corpusWorkloads {
		w.Instructions = defaultInstructions
		out[i] = w
	}
	return out
}

// Full returns the paper suite plus the extension corpus — the whole
// registered workload corpus.
func Full() []Workload {
	return append(All(), Corpus()...)
}
