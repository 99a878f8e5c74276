package cpu

import (
	"fmt"
	"math/bits"

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
// the banks' member → row maps, and the classification scratch shared
// by all members.
type lane struct {
	s      trace.Stream
	phased bool // the stream advertises phase ids
	done   bool
	// runShift is log2 of the line I-fetch runs are cut at, or -1 when
	// the IL1 bank takes one op per fetch (it is no RunPort).
	runShift int

	il1, dl1 MultiPort
	sts      []Stats
	mem      uint64
	dExtra   []int
	it, dt   []sideTimer
	lg       ledger // stays empty on unannotated streams

	// irow/drow[k] is member k's outcome row on each side; iown/down
	// list the rows that own themselves. stallRow[k] is the first member
	// with k's D row and EDC latency, and stallOwn lists those with an
	// active EDC stage.
	irow, drow, stallRow []int
	iown, down, stallOwn []int
	imc, dmc, stalls     []uint64 // per-chunk counts, indexed by owner
	iops                 []PortOp
	dops                 []PortOp
	udist                []uint8 // use distance per data op (0 for stores)
	imiss, dmiss         [][]bool
	// irows/drows are the per-chunk re-slicings of imiss/dmiss handed
	// to AccessBatch (each row exactly the chunk's op count).
	irows, drows [][]bool
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
	runShift := -1
	if rp, ok := il1.(RunPort); ok {
		b := rp.RunLineBytes()
		if b <= 0 || b&(b-1) != 0 {
			return nil, fmt.Errorf("cpu: IL1 bank cuts runs at %d B, not a positive power of two", b)
		}
		runShift = bits.TrailingZeros(uint(b))
	}
	mem := uint64(cfg.MemLatency)
	l := &lane{
		s: s, phased: s.HasPhases(), runShift: runShift, il1: il1, dl1: dl1, mem: mem,
		sts:      make([]Stats, k),
		dExtra:   make([]int, k),
		it:       make([]sideTimer, k),
		dt:       make([]sideTimer, k),
		stallRow: make([]int, k),
		imc:      make([]uint64, k),
		dmc:      make([]uint64, k),
		stalls:   make([]uint64, k),
		iops:     make([]PortOp, batchSize),
		dops:     make([]PortOp, batchSize),
		udist:    make([]uint8, batchSize),
		imiss:    make([][]bool, k),
		dmiss:    make([][]bool, k),
		irows:    make([][]bool, k),
		drows:    make([][]bool, k),
	}
	var err error
	if l.irow, l.iown, err = rowMap(il1, "IL1"); err != nil {
		return nil, err
	}
	if l.drow, l.down, err = rowMap(dl1, "DL1"); err != nil {
		return nil, err
	}
	for m := 0; m < k; m++ {
		l.dExtra[m] = dl1.Member(m).ExtraHitLatency()
		l.it[m] = newSideTimer(il1.Member(m), mem)
		l.dt[m] = newSideTimer(dl1.Member(m), mem)
		l.imiss[m] = make([]bool, batchSize)
		l.dmiss[m] = make([]bool, batchSize)
		l.stallRow[m] = m
		for j := 0; j < m; j++ {
			if l.drow[j] == l.drow[m] && l.dExtra[j] == l.dExtra[m] {
				l.stallRow[m] = j
				break
			}
		}
		if l.stallRow[m] == m && l.dExtra[m] > 0 {
			l.stallOwn = append(l.stallOwn, m)
		}
	}
	return l, nil
}

// rowMap reads a bank's member → row map and lists the owner rows,
// rejecting a row that is later than its member or not its own owner.
func rowMap(p MultiPort, side string) (row, own []int, err error) {
	row = make([]int, p.Members())
	for k := range row {
		r := p.Row(k)
		if r < 0 || r > k || p.Row(r) != r {
			return nil, nil, fmt.Errorf("cpu: %s bank maps member %d to row %d, which is not an earlier owner row", side, k, r)
		}
		row[k] = r
		if r == k {
			own = append(own, k)
		}
	}
	return row, own, nil
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
// one banked AccessBatch per side carrying the id — the I side one op
// per fetch line run when the bank takes runs — then one miss count
// per owner row (every miss on a side costs the same latency, and only
// a run's first fetch can miss) and one load-use stall tally per
// distinct (D row, EDC latency) with an active EDC stage, over the use
// distances recorded alongside the data ops. Only the fold runs per
// member, reading the counts of its rows.
func (l *lane) process(id uint8, insts []trace.Inst, sts []Stats) {
	n := len(insts)
	ni, nd, mix := classify(insts, l.iops, l.dops, l.udist, l.runShift)
	for k := range l.irows {
		l.irows[k] = l.imiss[k][:ni]
		l.drows[k] = l.dmiss[k][:nd]
	}
	l.il1.AccessBatch(id, l.iops[:ni], l.irows)
	l.dl1.AccessBatch(id, l.dops[:nd], l.drows)

	for _, r := range l.iown {
		l.imc[r] = countTrue(l.irows[r])
	}
	for _, r := range l.down {
		l.dmc[r] = countTrue(l.drows[r])
	}
	for _, k := range l.stallOwn {
		l.stalls[k] = loadUseStalls(l.dExtra[k], l.udist[:nd], l.drows[l.drow[k]])
	}
	for k := range sts {
		it, dt := &l.it[k], &l.dt[k]
		foldChunk(&sts[k], n, mix, it.cost, dt.cost, l.mem,
			l.imc[l.irow[k]], l.dmc[l.drow[k]], it.l2Delta(), dt.l2Delta(), l.stalls[l.stallRow[k]])
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
// count — in one branch-free pass over the row. Eight entries are
// summed as a tree before each add to the total, so the adds do not
// form one serial chain per entry (about 3x the throughput of a
// per-entry loop on amd64).
func countTrue(m []bool) uint64 {
	var n uint64
	for ; len(m) >= 8; m = m[8:] {
		n += b2u(m[0]) + b2u(m[1]) + b2u(m[2]) + b2u(m[3]) + b2u(m[4]) + b2u(m[5]) + b2u(m[6]) + b2u(m[7])
	}
	for _, v := range m {
		n += b2u(v)
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
// iops with one fetch op per instruction, writes the data accesses in
// program order to the front of dops with their use distances
// alongside in udist, and returns the counts of both and the
// instruction mix. With runShift ≥ 0 it then merges the fetch ops into
// one op per run of consecutive fetches on one 1<<runShift-byte line
// (fetchRuns), and the first count is the runs'. iops, dops and udist
// must each hold at least len(insts) entries, and insts at most
// batchSize, so a run's Rep never wraps.
//
// The walk has no data-dependent branch: every record writes a data op
// at the next free index, and the index advances only past a memory op.
// The precedence is that of a load/store/branch if-else chain, for
// records carrying any flag combination: a load wins over a store (its
// access reads, and its use distance counts), a memory op is never
// counted as a branch, and a taken flag counts only on a branch that
// is not a memory op. A store's use distance is masked to 0. Runs are
// found in a pass over the fetch ops rather than in the walk, which
// keeps the walk as cheap for banks that take one op per fetch.
func classify(insts []trace.Inst, iops, dops []PortOp, udist []uint8, runShift int) (int, int, chunkMix) {
	iops = iops[:len(insts)]
	dops = dops[:len(insts)]
	udist = udist[:len(insts)]
	var mix chunkMix
	d := 0
	for i := range insts {
		inst := &insts[i]
		iops[i] = PortOp{Addr: inst.PC}
		ld, st := b2u(inst.IsLoad), b2u(inst.IsStore)
		st &^= ld // a load with a store flag is a load
		memOp := ld | st
		br := b2u(inst.IsBranch) &^ memOp
		dops[d] = PortOp{Addr: inst.Addr, Write: st != 0}
		udist[d] = inst.UseDist & -uint8(ld)
		d += int(memOp)
		mix.loads += ld
		mix.stores += st
		mix.branches += br
		mix.taken += br & b2u(inst.Taken)
	}
	if runShift < 0 {
		return len(iops), d, mix
	}
	return fetchRuns(iops, uint(runShift)), d, mix
}

// fetchRuns merges consecutive fetch ops on one 1<<shift-byte line in
// place into one op per run — the run's first fetch, its further
// fetches counted in Rep — and returns the number of runs.
func fetchRuns(iops []PortOp, shift uint) int {
	if len(iops) == 0 {
		return 0
	}
	r := 0
	for _, op := range iops[1:] {
		if op.Addr>>shift == iops[r].Addr>>shift {
			iops[r].Rep++
		} else {
			r++
			iops[r] = op
		}
	}
	return r + 1
}

// b2u is a flag as 0 or 1; the compiler lowers it to a zero extension.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// loadUseStalls tallies the chunk's load-to-use stall cycles for one
// EDC-stage latency: for every load that hit (dmiss false) with a
// consumer UseDist away, the consumer sees the value after 1+dExtra
// cycles and hides UseDist of them. Callers skip the call entirely when
// dExtra is zero — the baseline single-cycle hit never stalls — and
// make it once for all members sharing a D row and latency.
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
