package cpu

import (
	"fmt"

	"edcache/internal/trace"
)

// batchSize is the chunk length of the replay loop: large enough to
// amortise the per-chunk calls, small enough that the scratch buffers
// (ops, outcomes, use distances — ~20 KB) plus the chunk's instructions
// stay L1-resident under the ports' own scratch. It is also the
// interleaving grain of shared state: RunShared rotates lanes per chunk,
// and a unified L2 sees one chunk's IL1 traffic before its DL1 traffic.
const batchSize = 1024

// lane is one stream replayed through one IL1/DL1 bank pair: the stream
// that serves its chunks as NextSlice windows of batchSize, K member
// Stats with their miss pricing, a phase ledger for annotated streams,
// and the classification scratch shared by all members.
type lane struct {
	s      trace.Stream
	phased bool // the stream advertises phase ids
	done   bool

	il1, dl1 MultiPort
	sts      []Stats
	mem      uint64
	dExtra   []int
	it, dt   []sideTimer
	lg       ledger // stays empty on unannotated streams

	iops  []PortOp
	dops  []PortOp
	udist []uint8 // use distance per data op (0 for stores)
	imiss [][]bool
	dmiss [][]bool
	// irows/drows are the per-chunk re-slicings of imiss/dmiss handed
	// to AccessBatch (each row exactly the chunk's op count).
	irows [][]bool
	drows [][]bool
}

func newLane(cfg Config, il1, dl1 MultiPort, s trace.Stream) (*lane, error) {
	if il1 == nil || dl1 == nil {
		return nil, fmt.Errorf("cpu: nil cache port")
	}
	if s == nil {
		return nil, fmt.Errorf("cpu: nil stream")
	}
	k := il1.Members()
	if d := dl1.Members(); d != k {
		return nil, fmt.Errorf("cpu: IL1 bank has %d members, DL1 bank %d", k, d)
	}
	if k == 0 {
		return nil, fmt.Errorf("cpu: empty cache bank")
	}
	mem := uint64(cfg.MemLatency)
	l := &lane{
		s: s, phased: s.HasPhases(), il1: il1, dl1: dl1, mem: mem,
		sts:    make([]Stats, k),
		dExtra: make([]int, k),
		it:     make([]sideTimer, k),
		dt:     make([]sideTimer, k),
		iops:   make([]PortOp, batchSize),
		dops:   make([]PortOp, 0, batchSize),
		udist:  make([]uint8, 0, batchSize),
		imiss:  make([][]bool, k),
		dmiss:  make([][]bool, k),
		irows:  make([][]bool, k),
		drows:  make([][]bool, k),
	}
	for m := 0; m < k; m++ {
		l.dExtra[m] = dl1.Member(m).ExtraHitLatency()
		l.it[m] = newSideTimer(il1.Member(m), mem)
		l.dt[m] = newSideTimer(dl1.Member(m), mem)
		l.imiss[m] = make([]bool, batchSize)
		l.dmiss[m] = make([]bool, batchSize)
	}
	return l, nil
}

// replay is the one replay loop: every round, each live lane replays
// one chunk in lane order, so state shared between lanes observes a
// deterministic interleaving; lanes whose streams end drop out. It
// returns one Stats per member per lane.
func replay(lanes []*lane) [][]Stats {
	for live := len(lanes); live > 0; {
		for _, l := range lanes {
			if !l.done && !l.step() {
				l.done = true
				live--
			}
		}
	}
	out := make([][]Stats, len(lanes))
	for i, l := range lanes {
		l.lg.finish(l.sts)
		out[i] = l.sts
	}
	return out
}

// step replays the lane's next chunk, split into same-phase runs on
// annotated streams, and reports whether the stream had one. An
// unannotated chunk is one phase-0 run.
func (l *lane) step() bool {
	chunk := l.s.NextSlice(batchSize)
	if len(chunk) == 0 {
		return false
	}
	if !l.phased {
		l.process(0, chunk, l.sts)
		return true
	}
	for len(chunk) > 0 {
		id := chunk[0].Phase
		j := 1
		for j < len(chunk) && chunk[j].Phase == id {
			j++
		}
		l.process(id, chunk[:j], l.lg.phase(id, len(l.sts)))
		chunk = chunk[j:]
	}
	return true
}

// process replays one run of phase id's instructions through every
// member and folds member k's outcome into sts[k]: one classification,
// one banked AccessBatch per side carrying the id, then a per-member
// fold. Misses are a branch-free count over each outcome row (every
// miss on a side costs the same latency), and load-use stalls read the
// use distances recorded alongside the data ops, only for members with
// an active EDC stage.
func (l *lane) process(id uint8, insts []trace.Inst, sts []Stats) {
	n := len(insts)
	iops := l.iops[:n]
	dops, udist, mix := classify(insts, iops, l.dops[:0], l.udist[:0])
	l.dops, l.udist = dops, udist
	for k := range l.irows {
		l.irows[k] = l.imiss[k][:n]
		l.drows[k] = l.dmiss[k][:len(dops)]
	}
	l.il1.AccessBatch(id, iops, l.irows)
	l.dl1.AccessBatch(id, dops, l.drows)

	for k := range sts {
		var loadUse uint64
		if l.dExtra[k] > 0 {
			loadUse = loadUseStalls(l.dExtra[k], udist, l.drows[k])
		}
		it, dt := &l.it[k], &l.dt[k]
		foldChunk(&sts[k], n, mix, it.cost, dt.cost, l.mem,
			countTrue(l.irows[k]), countTrue(l.drows[k]), it.l2Delta(), dt.l2Delta(), loadUse)
	}
}

// sideTimer prices one member's misses on one cache side: flat memory
// latency for a single-level port, L2 service latency plus memory
// latency per L2 fill miss behind an active TieredPort. The fill-miss
// counter is read by delta once per chunk.
type sideTimer struct {
	tp   TieredPort
	cost uint64 // cycles per L1 miss (memory latency, or L2 latency)
	mark uint64 // L2 fill-miss counter at the last read
}

func newSideTimer(p Port, mem uint64) sideTimer {
	t := sideTimer{cost: mem}
	if tp, ok := p.(TieredPort); ok && tp.L2Latency() > 0 {
		t.tp = tp
		t.cost = uint64(tp.L2Latency())
		t.mark = tp.L2FillMisses()
	}
	return t
}

// l2Delta returns the demand fills that missed the L2 since the last
// call — always zero for single-level ports.
func (t *sideTimer) l2Delta() uint64 {
	if t.tp == nil {
		return 0
	}
	f := t.tp.L2FillMisses()
	d := f - t.mark
	t.mark = f
	return d
}

// countTrue returns the number of set entries — the batched miss
// count. The conditional increment lowers to a branch-free add, so
// tallying a chunk's misses is one linear pass over a byte slice.
func countTrue(m []bool) uint64 {
	var n uint64
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// chunkMix is one chunk's instruction-mix tally: the classification
// output that is identical for every cache configuration replaying the
// chunk, which is what lets a lane classify once and fan only the
// cache accesses out per member.
type chunkMix struct {
	loads, stores, branches, taken uint64
}

// classify performs the one walk over a chunk's instructions: it fills
// iops (one fetch per instruction), appends the data accesses in
// program order to dops with their use distances alongside in udist,
// and tallies the instruction mix. iops must have length len(insts);
// dops and udist are returned re-sliced (append semantics) so callers
// can reuse their backing arrays.
func classify(insts []trace.Inst, iops []PortOp, dops []PortOp, udist []uint8) ([]PortOp, []uint8, chunkMix) {
	var mix chunkMix
	for i := range insts {
		inst := &insts[i]
		iops[i] = PortOp{Addr: inst.PC}
		if inst.IsLoad {
			mix.loads++
			dops = append(dops, PortOp{Addr: inst.Addr})
			udist = append(udist, inst.UseDist)
		} else if inst.IsStore {
			mix.stores++
			dops = append(dops, PortOp{Addr: inst.Addr, Write: true})
			udist = append(udist, 0)
		} else if inst.IsBranch {
			mix.branches++
			if inst.Taken {
				mix.taken++
			}
		}
	}
	return dops, udist, mix
}

// loadUseStalls tallies the chunk's load-to-use stall cycles for one
// EDC-stage latency: for every load that hit (dmiss false) with a
// consumer UseDist away, the consumer sees the value after 1+dExtra
// cycles and hides UseDist of them. Callers skip the call entirely when
// dExtra is zero — the baseline single-cycle hit never stalls.
func loadUseStalls(dExtra int, udist []uint8, dmiss []bool) uint64 {
	var stalls uint64
	for d, ud := range udist {
		if ud > 0 && !dmiss[d] {
			if stall := 1 + dExtra - int(ud); stall > 0 {
				stalls += uint64(stall)
			}
		}
	}
	return stalls
}

// foldChunk accumulates one chunk's outcome into st: n issue slots,
// the shared mix tally, and the member-specific miss counts and
// load-use stalls. iCost/dCost price each side's L1 misses (the memory
// latency for single-level ports, the L2 latency behind a hierarchy);
// il2/dl2 are the chunk's L2 fill misses, each worth the full memory
// latency on top. Every term is a commutative sum, so the run totals
// the ledger sums from its per-phase Stats equal one running sum.
func foldChunk(st *Stats, n int, mix chunkMix, iCost, dCost, mem, imisses, dmisses, il2, dl2, loadUse uint64) {
	missCycles := iCost*imisses + dCost*dmisses + mem*(il2+dl2)
	st.Instructions += uint64(n)
	st.Cycles += uint64(n) + missCycles + loadUse // issue slots + stalls
	st.IAccesses += uint64(n)
	st.IMisses += imisses
	st.Loads += mix.loads
	st.Stores += mix.stores
	st.Branches += mix.branches
	st.TakenBranches += mix.taken
	st.DAccesses += mix.loads + mix.stores
	st.DMisses += dmisses
	st.IL2Misses += il2
	st.DL2Misses += dl2
	st.LoadUseStalls += loadUse
	st.MissCycles += missCycles
}

// ledger counts a lane's member Stats per phase in place, indexed by
// phase id: lg[id][k] is member k's counters over phase id, made when
// the id first appears and nil for ids the stream never carried. Phases
// are shared by every member — they replay the same instruction
// sequence.
type ledger [][]Stats

// phase returns the member Stats that phase id's instructions fold
// into, growing the table to cover id.
func (lg *ledger) phase(id uint8, members int) []Stats {
	if int(id) >= len(*lg) {
		*lg = append(*lg, make(ledger, int(id)+1-len(*lg))...)
	}
	if (*lg)[id] == nil {
		(*lg)[id] = make([]Stats, members)
	}
	return (*lg)[id]
}

// finish sums each member's phases into its run totals and attaches
// them in id order.
func (lg ledger) finish(sts []Stats) {
	for k := range sts {
		for id, seg := range lg {
			if seg != nil {
				addCounters(&sts[k], seg[k])
				sts[k].Phases = append(sts[k].Phases, PhaseStats{Phase: uint8(id), Stats: seg[k]})
			}
		}
	}
}
