// Package cpu models the evaluation platform's processor: a very simple
// single-issue in-order core, as the paper requires ("a very simple
// processor architecture with one core and in-order execution,
// resembling a recently fabricated Intel processor for hybrid Vcc
// operation"). The core is trace-driven: it replays an instruction
// stream against the two L1 caches and produces the cycle and event
// counts the energy accounting layer (internal/core) turns into EPI.
//
// Timing model:
//   - one instruction issues per cycle;
//   - an IL1 miss stalls fetch for the memory latency;
//   - a DL1 miss stalls for the memory latency (write-allocate);
//   - behind a two-level hierarchy (TieredPort) an L1 miss stalls for
//     the L2 latency instead, and each demand fill that also misses the
//     L2 adds the full memory latency on top;
//   - a load that hits stalls max(0, hitLatency − useDistance) cycles:
//     with the baseline single-cycle hit this is never a stall, with the
//     extra EDC pipeline stage it stalls loads whose consumer is the
//     next instruction — the source of the paper's ~3 % ULE slowdown.
//     The I-side EDC stage is hidden by the fetch pipeline (corrections
//     replay only on actual errors), so taken branches incur no extra
//     redirect penalty.
//
// Replay has one engine: a chunk loop over lanes. A lane is one
// instruction stream driving one IL1 bank and one DL1 bank of K cache
// configurations (MultiPort); each chunk is pulled, classified and
// split at phase boundaries once, and only the cache accesses and the
// per-member tallies fan out. Run is one lane of one member, RunMulti
// one lane of K members, and RunShared N lanes interleaved round-robin
// at chunk granularity over caches that may share state behind the L1s.
package cpu

import (
	"fmt"

	"edcache/internal/trace"
)

// Port is what the core reads of one cache configuration besides its
// accesses: the extra hit latency of its EDC stage. Optional extensions
// (TieredPort, PhasePort) are probed by type assertion.
type Port interface {
	// ExtraHitLatency returns the additional hit latency in cycles
	// beyond the single-cycle baseline (the EDC decode stage).
	ExtraHitLatency() int
}

// PortOp is one access of a batched port request.
type PortOp struct {
	Addr  uint32
	Write bool
}

// BatchPort is one cache configuration as the core drives it: one
// AccessBatch call covers a whole instruction chunk, in program order,
// setting miss[i] to the i-th op's outcome. The implementation
// (internal/core) tracks its own energy.
type BatchPort interface {
	Port
	AccessBatch(ops []PortOp, miss []bool)
}

// TieredPort is an optional Port extension advertising a second cache
// level behind the L1. When a port implements it with L2Latency() > 0,
// the core prices an L1 miss at the L2 service latency instead of the
// memory latency, and adds the full memory latency for every demand
// fill that missed the L2 as well. L2FillMisses is a running counter
// (monotone within a run); the core reads it by deltas once per chunk,
// so the charge depends only on the port's own access sequence.
type TieredPort interface {
	Port
	// L2Latency returns the L2 hit service time in cycles; 0 means the
	// port is effectively single-level and the extension is ignored.
	L2Latency() int
	// L2FillMisses returns the running count of demand fills that
	// missed the L2 (memory fetches) since the port was built.
	L2FillMisses() uint64
}

// PhasePort is an optional port extension for phase-segmented
// accounting, honoured on BatchPorts behind a FanPort and on MultiPorts
// themselves: when the replayed stream is phase-annotated, the core
// calls BeginPhase every time the stream's phase id changes (and once
// up front if the stream opens in a non-zero phase) before issuing that
// phase's accesses, so the port can slice its own event counters per
// phase. Ports start in phase 0 implicitly; unannotated streams never
// trigger a call.
type PhasePort interface {
	BeginPhase(id uint8)
}

// Config is the core's timing configuration.
type Config struct {
	// MemLatency is the memory access penalty in cycles; the paper uses
	// "in the order of 20 cycles" for this highly integrated market.
	MemLatency int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MemLatency < 1 {
		return fmt.Errorf("cpu: memory latency %d must be ≥ 1", c.MemLatency)
	}
	return nil
}

// Stats are the event counts of one run.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	Loads         uint64
	Stores        uint64
	Branches      uint64
	TakenBranches uint64

	IAccesses uint64
	IMisses   uint64
	DAccesses uint64
	DMisses   uint64

	// IL2Misses/DL2Misses count the per-side L1 demand fills that also
	// missed the second level (memory fetches). Zero for single-level
	// ports, where IMisses/DMisses themselves are the memory fetches.
	IL2Misses uint64
	DL2Misses uint64

	LoadUseStalls uint64 // cycles lost to load-to-use stalls
	MissCycles    uint64 // cycles lost to memory accesses

	// Phases segments every counter above by the stream's phase id,
	// ordered by id. It is nil unless the replayed stream advertises
	// phase annotations (trace.PhaseAnnotated), so unphased replay
	// keeps its exact fast path. When present, each counter sums over
	// the segments to exactly the run-level value.
	Phases []PhaseStats
}

// PhaseStats is one phase segment of a run: the full counter set
// restricted to the instructions carrying this phase id. Stats.Phases
// within the segment is always nil.
type PhaseStats struct {
	Phase uint8
	Stats Stats
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// subCounters returns the field-wise difference a − b of the plain
// counters (Phases excluded); the phase ledger uses it to turn two
// running snapshots into one segment.
func subCounters(a, b Stats) Stats {
	return Stats{
		Instructions:  a.Instructions - b.Instructions,
		Cycles:        a.Cycles - b.Cycles,
		Loads:         a.Loads - b.Loads,
		Stores:        a.Stores - b.Stores,
		Branches:      a.Branches - b.Branches,
		TakenBranches: a.TakenBranches - b.TakenBranches,
		IAccesses:     a.IAccesses - b.IAccesses,
		IMisses:       a.IMisses - b.IMisses,
		DAccesses:     a.DAccesses - b.DAccesses,
		DMisses:       a.DMisses - b.DMisses,
		IL2Misses:     a.IL2Misses - b.IL2Misses,
		DL2Misses:     a.DL2Misses - b.DL2Misses,
		LoadUseStalls: a.LoadUseStalls - b.LoadUseStalls,
		MissCycles:    a.MissCycles - b.MissCycles,
	}
}

// addCounters accumulates the plain counters of d into dst.
func addCounters(dst *Stats, d Stats) {
	dst.Instructions += d.Instructions
	dst.Cycles += d.Cycles
	dst.Loads += d.Loads
	dst.Stores += d.Stores
	dst.Branches += d.Branches
	dst.TakenBranches += d.TakenBranches
	dst.IAccesses += d.IAccesses
	dst.IMisses += d.IMisses
	dst.DAccesses += d.DAccesses
	dst.DMisses += d.DMisses
	dst.IL2Misses += d.IL2Misses
	dst.DL2Misses += d.DL2Misses
	dst.LoadUseStalls += d.LoadUseStalls
	dst.MissCycles += d.MissCycles
}

// Run replays the stream through one IL1/DL1 pair and returns the run's
// stats. It is RunMulti over two one-member banks (FanPort), so it
// shares the one chunked replay loop: each chunk is pulled from the
// stream once (zero-copy for trace.SliceBatcher streams, trace.Fill
// otherwise), classified once, and issued as one AccessBatch per cache.
// Each cache sees its own access sequence in program order; IL1 and
// DL1 are independent state, so interleaving between them never
// affects either unless the ports share state behind the L1s (a
// unified L2), where the chunk order — IL1 traffic before DL1 traffic —
// is the interleaving semantics.
//
// When the stream advertises phase annotations (trace.PhaseAnnotated),
// Run segments the counters per phase id into Stats.Phases and notifies
// PhasePort ports at every boundary; chunks split at phase boundaries,
// so the caches still see the identical access sequence. Streams
// without the annotation run unsegmented.
func Run(cfg Config, il1, dl1 BatchPort, s trace.Stream) (Stats, error) {
	if il1 == nil || dl1 == nil {
		return Stats{}, fmt.Errorf("cpu: nil cache port")
	}
	sts, err := RunMulti(cfg, &FanPort{members: []BatchPort{il1}}, &FanPort{members: []BatchPort{dl1}}, s)
	if err != nil {
		return Stats{}, err
	}
	return sts[0], nil
}
