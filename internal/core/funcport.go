package core

import (
	"fmt"

	"edcache/internal/cache"
	"edcache/internal/cpu"
	"edcache/internal/trace"
)

// Replay path for the functional (bit-accurate) layer: this adapter
// puts a FunctionalCache behind cpu.BatchPort, so a whole workload
// stream replays through real EDC codewords, stuck-at fault maps and
// decoders on the same chunked replay loop the performance-model ports
// use. AccessBatch behaves exactly like FunctionalCache.Load/Store per
// op in order.

// funcPort adapts a FunctionalCache to the core's port interfaces.
type funcPort struct {
	fc    *FunctionalCache
	extra int
	ops   []cache.Op // AccessBatch scratch
}

// funcStoreValue synthesizes the value a replayed store writes. Trace
// records carry addresses, not data, so the replay derives a
// deterministic address-dependent pattern — enough to keep the
// encoder/decoder path exercised with varying codewords.
func funcStoreValue(addr uint32) uint32 { return addr ^ 0xEDC0DE5A }

// AccessBatch implements cpu.BatchPort: the chunk's timing accesses
// run as one batched call against the functional cache's simulator and
// the protected-array work consumes the Result slice. Behaviour is
// identical to a Load (or Store of funcStoreValue) per op in order.
func (p *funcPort) AccessBatch(ops []cpu.PortOp, miss []bool) {
	n := len(ops)
	if cap(p.ops) < n {
		p.ops = make([]cache.Op, n)
	}
	co := p.ops[:n]
	for i, op := range ops {
		co[i] = cache.Op{Addr: op.Addr, Write: op.Write}
	}
	p.fc.accessBatch(co, funcStoreValue, miss)
}

// ExtraHitLatency implements cpu.Port.
func (p *funcPort) ExtraHitLatency() int { return p.extra }

// ReplayFunctional replays a stream through two functional caches on
// the core timing model (cpu.Run), returning the run's cpu.Stats;
// extraDL1 is the additional D-side hit latency to charge (the EDC
// decode stage — use System.ExtraHitLatency for a sized design).
// Unlike System.Run this drives the bit-accurate protected storage:
// every fetched and accessed word travels encoder → fault map →
// decoder, so a faulty die's behaviour shows up in il1/dl1's
// CorrectedReads and Uncorrectable counters alongside the timing.
func ReplayFunctional(cfg cpu.Config, il1, dl1 *FunctionalCache, extraDL1 int, s trace.Stream) (cpu.Stats, error) {
	if il1 == nil || dl1 == nil {
		return cpu.Stats{}, fmt.Errorf("core: nil functional cache")
	}
	return cpu.Run(cfg, &funcPort{fc: il1}, &funcPort{fc: dl1, extra: extraDL1}, s)
}
