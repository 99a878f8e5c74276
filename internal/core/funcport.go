package core

import (
	"fmt"
	"slices"

	"edcache/internal/cpu"
	"edcache/internal/trace"
)

// Replay path for the functional (bit-accurate) layer: this adapter
// puts FunctionalCaches behind cpu.MultiPort, so a whole workload
// stream replays through real EDC codewords, stuck-at fault maps and
// decoders on the same chunked replay loop the performance-model ports
// use. Each FunctionalCache decides its own hits and misses from its
// line state, so a replay runs no cache.Cache beside the dice.

// funcBank is one side of a functional replay group: member k replays
// through fcs[k], or, past the last cache, shares member 0's row — the
// one fault-free IL1 of a group of dice, the same for every die.
type funcBank struct {
	fcs      []*FunctionalCache
	k, extra int
}

// funcStoreValue synthesizes the value a replayed store writes. Trace
// records carry addresses, not data, so the replay derives a
// deterministic address-dependent pattern — enough to keep the
// encoder/decoder path exercised with varying codewords.
func funcStoreValue(addr uint32) uint32 { return addr ^ 0xEDC0DE5A }

// Members implements cpu.MultiPort.
func (b *funcBank) Members() int { return b.k }

// Member implements cpu.MultiPort: members share the EDC hit latency.
func (b *funcBank) Member(int) cpu.Port { return b }

// ExtraHitLatency implements cpu.Port.
func (b *funcBank) ExtraHitLatency() int { return b.extra }

// Row implements cpu.MultiPort: members past the last cache read member
// 0's row.
func (b *funcBank) Row(k int) int {
	if k >= len(b.fcs) {
		return 0
	}
	return k
}

// AccessBatch implements cpu.MultiPort: each cache replays the chunk
// as a Load (or Store of funcStoreValue) per op into its own row. The
// caches count no phases, so the id is ignored.
func (b *funcBank) AccessBatch(_ uint8, ops []cpu.PortOp, miss [][]bool) {
	for k, fc := range b.fcs {
		for i, op := range ops {
			var hit bool
			if op.Write {
				hit = fc.Store(op.Addr, funcStoreValue(op.Addr))
			} else {
				_, hit = fc.Load(op.Addr)
			}
			miss[k][i] = !hit
		}
	}
}

// ReplayFunctional replays a stream through two functional caches on
// the core timing model, returning the run's cpu.Stats; extraDL1 is the
// additional D-side hit latency to charge (the EDC decode stage — use
// System.ExtraHitLatency for a sized design). Unlike System.Run this
// drives the bit-accurate protected storage: every fetched and accessed
// word travels encoder → fault map → decoder, so a faulty die's
// behaviour shows up in il1/dl1's CorrectedReads and Uncorrectable
// counters alongside the timing. It is the one-die ReplayFunctionalGroup.
func ReplayFunctional(cfg cpu.Config, il1, dl1 *FunctionalCache, extraDL1 int, s trace.Stream) (cpu.Stats, error) {
	sts, err := ReplayFunctionalGroup(cfg, il1, []*FunctionalCache{dl1}, extraDL1, s)
	if err != nil {
		return cpu.Stats{}, err
	}
	return sts[0], nil
}

// ReplayFunctionalGroup replays one stream once for several dice: one
// fault-free IL1, replayed once and shared by every die, in front of
// one distinct DL1 per die, in a single cpu.RunMulti pass. It returns one
// cpu.Stats per DL1, each equal to ReplayFunctional of that die alone
// with a fresh IL1; il1's counters are those of one replay.
func ReplayFunctionalGroup(cfg cpu.Config, il1 *FunctionalCache, dl1s []*FunctionalCache, extraDL1 int, s trace.Stream) ([]cpu.Stats, error) {
	if il1 == nil || len(dl1s) == 0 || slices.Contains(dl1s, nil) {
		return nil, fmt.Errorf("core: nil functional cache")
	}
	k := len(dl1s)
	return cpu.RunMulti(cfg, &funcBank{fcs: []*FunctionalCache{il1}, k: k}, &funcBank{fcs: dl1s, k: k, extra: extraDL1}, s)
}
