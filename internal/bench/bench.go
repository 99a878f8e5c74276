// Package bench provides the workload suite of the evaluation. The paper
// uses MediaBench (Lee et al., MICRO 1997) split into two categories by
// cache footprint: SmallBench (adpcm and epic, encode and decode), whose
// working sets fit very small caches (~1 KB) and which run during ULE
// mode, and BigBench (g721, gsm, mpeg2), which need the full 8 KB cache
// and run during HP mode (Section IV-A.1). MediaBench binaries are not
// redistributable and no compiled target exists for this simulator, so
// each benchmark is reproduced as a deterministic synthetic trace
// generator calibrated to the kernel family's instruction mix, working
// set and access pattern — the properties the evaluation actually
// depends on.
//
// Beyond the paper's ten workloads, corpus.go grows the suite with a
// family of parameterised generators — pointer chasing, streaming
// stencils, branch-heavy control, phased working-set shifts, and an
// adversarial worst-case-locality pattern (see Pattern). All() returns
// the paper suite unchanged; Corpus() the extensions; Full() both. The
// README's workload-corpus table documents every registered entry and
// the recipe for adding one.
package bench

import (
	"fmt"
	"math/rand"

	"edcache/internal/trace"
)

// Suite classifies workloads by footprint, as the paper does.
type Suite int

const (
	// SmallBench workloads fit in the 1 KB ULE way (ULE-mode duty).
	SmallBench Suite = iota
	// BigBench workloads need the full cache (HP-mode duty).
	BigBench
)

// String names the suite as the paper does.
func (s Suite) String() string {
	if s == SmallBench {
		return "SmallBench"
	}
	return "BigBench"
}

// Pattern selects the access-pattern family a workload's generator
// reproduces. The zero value is the MediaBench-style mix the paper's
// ten workloads use; the other patterns form the extension corpus
// (corpus.go) that stresses behaviours the paper's suite cannot reach —
// dependent-load chains, perfect spatial streaming, control pressure,
// working-set phase shifts, and worst-case conflict locality.
type Pattern int

const (
	// PatternMediaBench is the paper's synthetic kernel mix: streaming
	// plus uniform reuse over one working set.
	PatternMediaBench Pattern = iota
	// PatternPointerChase walks a pseudo-random permutation cycle of
	// pointer-sized nodes: every load is address-dependent on the
	// previous one with a next-instruction consumer, the worst case for
	// the EDC extra hit cycle.
	PatternPointerChase
	// PatternStencil is a 3-point streaming stencil (read in[i-1..i+1],
	// write out[i]) — the DSP/filter shape with near-perfect spatial
	// locality.
	PatternStencil
	// PatternBranchy is control-dominated code: dense data-dependent
	// branches over a small hot loop with a lookup table.
	PatternBranchy
	// PatternPhased cycles through phases with distinct working-set
	// slices and instruction mixes (PhaseInsts instructions each),
	// annotated by a per-phase PC region, modelling multi-phase
	// programs whose footprint shifts at runtime.
	PatternPhased
	// PatternAdversarial walks addresses one cache-set stride apart so
	// more distinct lines map to one set than the cache has ways —
	// steady-state 100 % conflict misses, the locality worst case.
	PatternAdversarial
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternMediaBench:
		return "mediabench"
	case PatternPointerChase:
		return "ptrchase"
	case PatternStencil:
		return "stencil"
	case PatternBranchy:
		return "branchy"
	case PatternPhased:
		return "phased"
	case PatternAdversarial:
		return "adversarial"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Workload is a parameterised synthetic benchmark.
type Workload struct {
	Name  string
	Suite Suite

	// Pattern selects the generator family; the zero value is the
	// paper's MediaBench-style mix. Pattern-specific parameters are
	// documented on the corresponding constructor in corpus.go.
	Pattern Pattern

	Instructions int // dynamic instruction count per run

	CodeBytes int // static code footprint (IL1 working set)
	DataBytes int // data working set (DL1 footprint)

	LoadFrac   float64 // fraction of instructions that load
	StoreFrac  float64 // fraction of instructions that store
	BranchFrac float64 // fraction of instructions that branch
	TakenFrac  float64 // of branches, fraction taken

	StreamFrac  float64 // of memory refs, fraction that stream sequentially
	StrideBytes int     // stride of streaming references

	// UseDist1Frac is the fraction of loads whose consumer is the very
	// next instruction. These are the loads that stall one cycle when
	// the EDC pipeline stage lengthens the load-to-use latency — the
	// source of the paper's ~3 % ULE-mode slowdown.
	UseDist1Frac float64

	// PhaseInsts is the per-phase instruction count of PatternPhased
	// workloads (ignored by other patterns).
	PhaseInsts int

	Seed int64
}

// Memory layout constants for generated addresses.
const (
	codeBase = 0x0040_0000
	dataBase = 0x1000_0000
)

// ScaledTo returns a copy of the workload with the given dynamic
// instruction count (tests and quick runs use shorter traces).
func (w Workload) ScaledTo(instructions int) Workload {
	w.Instructions = instructions
	return w
}

// HasPhases reports whether the workload's generator annotates
// instructions with phase ids (PatternPhased does natively; the
// phase-aware experiments and tracegen -phases key off it).
func (w Workload) HasPhases() bool { return w.Pattern == PatternPhased }

// Stream returns a fresh deterministic instruction stream for the
// workload. It generates each window on demand, so serialisation
// (trace.WriteV2) and replay (cpu.Run) hold one window at a time, and
// trace.NewArena has it fill a slab in place.
func (w Workload) Stream() trace.Stream {
	switch w.Pattern {
	case PatternPointerChase:
		return newChaseStream(w)
	case PatternStencil:
		return newStencilStream(w)
	case PatternBranchy:
		return newBranchyStream(w)
	case PatternPhased:
		return newPhasedStream(w)
	case PatternAdversarial:
		return newAdversarialStream(w)
	default:
		g := &genStream{w: w, rng: rand.New(rand.NewSource(w.Seed)), pc: codeBase}
		return &seqStream{n: w.Instructions, fill: g.fill}
	}
}

// genStream is the MediaBench-calibrated generator's state; seqStream
// meters out its instructions.
type genStream struct {
	w      Workload
	rng    *rand.Rand
	pc     uint32
	stream uint32 // streaming cursor within the data region
}

// fill generates the next len(win) instructions in place. Each one
// draws its class; a memory reference then draws its address (a
// streaming ref walks the working set sequentially with the workload's
// stride, the rest hit a uniformly random word of it, for reuse) and a
// load its load-to-use distance; a branch draws whether it is taken.
// Taken branches jump within the code footprint (loop structure),
// everything else falls through, and the PC wraps at the end of the
// code region (outer loop). The cut points keep the association order
// of the running sums they replace, so no comparison can flip.
func (g *genStream) fill(win []trace.Inst) {
	w, rng, pc, stream := &g.w, g.rng, g.pc, g.stream
	loadCut := w.LoadFrac
	storeCut := loadCut + w.StoreFrac
	branchCut := storeCut + w.BranchFrac
	use1Cut := w.UseDist1Frac
	use2Cut := use1Cut + 0.30
	codeWords, codeEnd := w.CodeBytes/4, codeBase+uint32(w.CodeBytes)
	dataWords, dataBytes, stride := w.DataBytes/4, uint32(w.DataBytes), uint32(w.StrideBytes)
	for i := range win {
		in := trace.Inst{PC: pc}
		switch r := rng.Float64(); {
		case r < loadCut:
			in.IsLoad = true
		case r < storeCut:
			in.IsStore = true
		case r < branchCut:
			in.IsBranch = true
			in.Taken = rng.Float64() < w.TakenFrac
		}
		if in.IsLoad || in.IsStore {
			if rng.Float64() < w.StreamFrac {
				in.Addr = dataBase + stream
				stream += stride
				if stream >= dataBytes {
					stream = 0
				}
			} else {
				in.Addr = dataBase + uint32(rng.Intn(dataWords))*4
			}
			if in.IsLoad {
				switch r := rng.Float64(); {
				case r < use1Cut:
					in.UseDist = 1
				case r < use2Cut:
					in.UseDist = 2
				default:
					in.UseDist = 3
				}
			}
		}
		if in.Taken {
			pc = codeBase + uint32(rng.Intn(codeWords))*4
		} else if pc += 4; pc >= codeEnd {
			pc = codeBase
		}
		win[i] = in
	}
	g.pc, g.stream = pc, stream
}

// defaultInstructions is the per-run dynamic length used by the
// experiments; long enough for cache behaviour to reach steady state,
// short enough for the full evaluation matrix to run in seconds.
const defaultInstructions = 300_000

// workloads is the MediaBench-like suite. Instruction mixes and
// footprints follow the published character of each kernel family:
// adpcm is tiny sequential sample processing; epic is small-state image
// pyramid coding; g721 is table-driven speech coding; gsm is
// filter-heavy speech coding; mpeg2 walks frame-sized buffers.
var workloads = []Workload{
	{Name: "adpcm_c", Suite: SmallBench, CodeBytes: 768, DataBytes: 512,
		LoadFrac: 0.20, StoreFrac: 0.07, BranchFrac: 0.13, TakenFrac: 0.60,
		StreamFrac: 0.80, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 101},
	{Name: "adpcm_d", Suite: SmallBench, CodeBytes: 640, DataBytes: 512,
		LoadFrac: 0.19, StoreFrac: 0.08, BranchFrac: 0.13, TakenFrac: 0.62,
		StreamFrac: 0.82, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 102},
	{Name: "epic_c", Suite: SmallBench, CodeBytes: 1024, DataBytes: 896,
		LoadFrac: 0.24, StoreFrac: 0.09, BranchFrac: 0.11, TakenFrac: 0.55,
		StreamFrac: 0.65, StrideBytes: 8, UseDist1Frac: 0.13, Seed: 103},
	{Name: "epic_d", Suite: SmallBench, CodeBytes: 896, DataBytes: 768,
		LoadFrac: 0.23, StoreFrac: 0.10, BranchFrac: 0.11, TakenFrac: 0.55,
		StreamFrac: 0.68, StrideBytes: 8, UseDist1Frac: 0.13, Seed: 104},
	{Name: "g721_c", Suite: BigBench, CodeBytes: 2048, DataBytes: 6144,
		LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.12, TakenFrac: 0.58,
		StreamFrac: 0.35, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 105},
	{Name: "g721_d", Suite: BigBench, CodeBytes: 2048, DataBytes: 5632,
		LoadFrac: 0.25, StoreFrac: 0.09, BranchFrac: 0.12, TakenFrac: 0.58,
		StreamFrac: 0.35, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 106},
	{Name: "gsm_c", Suite: BigBench, CodeBytes: 3072, DataBytes: 5120,
		LoadFrac: 0.27, StoreFrac: 0.08, BranchFrac: 0.10, TakenFrac: 0.56,
		StreamFrac: 0.55, StrideBytes: 8, UseDist1Frac: 0.11, Seed: 107},
	{Name: "gsm_d", Suite: BigBench, CodeBytes: 2816, DataBytes: 4608,
		LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.10, TakenFrac: 0.56,
		StreamFrac: 0.58, StrideBytes: 8, UseDist1Frac: 0.11, Seed: 108},
	{Name: "mpeg2_c", Suite: BigBench, CodeBytes: 4096, DataBytes: 12288,
		LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.09, TakenFrac: 0.54,
		StreamFrac: 0.70, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 109},
	{Name: "mpeg2_d", Suite: BigBench, CodeBytes: 3584, DataBytes: 10240,
		LoadFrac: 0.27, StoreFrac: 0.11, BranchFrac: 0.09, TakenFrac: 0.54,
		StreamFrac: 0.72, StrideBytes: 4, UseDist1Frac: 0.12, Seed: 110},
}

// All returns the full ten-benchmark suite (encode + decode variants of
// adpcm, epic, g721, gsm and mpeg2) at the default trace length.
func All() []Workload {
	out := make([]Workload, len(workloads))
	for i, w := range workloads {
		w.Instructions = defaultInstructions
		out[i] = w
	}
	return out
}

// Small returns the SmallBench workloads (ULE-mode duty).
func Small() []Workload { return filter(SmallBench) }

// Big returns the BigBench workloads (HP-mode duty).
func Big() []Workload { return filter(BigBench) }

func filter(s Suite) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Suite == s {
			out = append(out, w)
		}
	}
	return out
}

// ByName looks a workload up by name, across the paper suite and the
// extension corpus.
func ByName(name string) (Workload, error) {
	for _, w := range Full() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}
