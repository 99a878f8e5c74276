package cpu

import (
	"encoding/binary"
	"reflect"
	"testing"

	"edcache/internal/cache"
	"edcache/internal/trace"
)

// classifyRef is the per-record reference classify is held to: the
// load/store/branch if-else chain, appending one data op per memory
// record.
func classifyRef(insts []trace.Inst) (iops, dops []PortOp, udist []uint8, mix chunkMix) {
	for _, inst := range insts {
		iops = append(iops, PortOp{Addr: inst.PC})
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
	return iops, dops, udist, mix
}

// collapseRuns merges consecutive fetches on one 1<<shift-byte line into
// one op: the run's first fetch, with its further fetches in Rep.
func collapseRuns(fetches []PortOp, shift uint) []PortOp {
	var runs []PortOp
	for _, op := range fetches {
		if n := len(runs); n > 0 && runs[n-1].Addr>>shift == op.Addr>>shift {
			runs[n-1].Rep++
			continue
		}
		runs = append(runs, op)
	}
	return runs
}

// fuzzInsts decodes up to one chunk of records, 6 bytes each: flag bits
// (load, store, branch, taken) and a 2-bit phase id, the use distance,
// and 16-bit PC and data address.
func fuzzInsts(data []byte) []trace.Inst {
	var insts []trace.Inst
	for ; len(data) >= 6 && len(insts) < batchSize; data = data[6:] {
		f := data[0]
		insts = append(insts, trace.Inst{
			IsLoad: f&1 != 0, IsStore: f&2 != 0, IsBranch: f&4 != 0, Taken: f&8 != 0,
			Phase:   f >> 4 & 3,
			UseDist: data[1],
			PC:      uint32(binary.LittleEndian.Uint16(data[2:])),
			Addr:    uint32(binary.LittleEndian.Uint16(data[4:])),
		})
	}
	return insts
}

// runLog is an IL1 bank that takes runs and records every batch it is
// handed: its phase id and a copy of its ops.
type runLog struct {
	runFan
	phases  []uint8
	batches [][]PortOp
}

func (r *runLog) AccessBatch(phase uint8, ops []PortOp, miss [][]bool) {
	r.phases = append(r.phases, phase)
	r.batches = append(r.batches, append([]PortOp(nil), ops...))
	r.FanPort.AccessBatch(phase, ops, miss)
}

// checkLaneRuns replays insts, repeated past two chunk boundaries, as a
// phase-annotated stream through a lane whose IL1 bank takes runs cut
// at 1<<shift bytes. Every batch the bank sees must be classifyRef's
// fetches of one window collapsed by line, the windows cut at every
// batchSize-th record and every phase change, so no run crosses a chunk
// or phase boundary.
func checkLaneRuns(t *testing.T, insts []trace.Inst, shift uint) {
	var stream []trace.Inst
	for len(stream) <= 2*batchSize {
		stream = append(stream, insts...)
	}
	g := cache.Config{Sets: 4, Ways: 2, LineBytes: 32}
	il1 := &runLog{runFan: runFan{FanPort: mustFan(t, newBatchPortCfg(g, 0)), line: 1 << shift}}
	if _, err := RunMulti(Config{MemLatency: 20}, il1, mustFan(t, newBatchPortCfg(g, 0)), &annotated{trace.SliceStream{Insts: stream}}); err != nil {
		t.Fatal(err)
	}
	var wantPhases []uint8
	var want [][]PortOp
	for start := 0; start < len(stream); {
		end := start + 1
		for end < len(stream) && end%batchSize != 0 && stream[end].Phase == stream[start].Phase {
			end++
		}
		fetches, _, _, _ := classifyRef(stream[start:end])
		wantPhases = append(wantPhases, stream[start].Phase)
		want = append(want, collapseRuns(fetches, shift))
		start = end
	}
	if !reflect.DeepEqual(il1.phases, wantPhases) || !reflect.DeepEqual(il1.batches, want) {
		t.Fatalf("%d B runs: IL1 batches (phases %v)\n %+v\nwant (phases %v)\n %+v", 1<<shift, il1.phases, il1.batches, wantPhases, want)
	}
}

// FuzzClassify holds the branch-free classify to classifyRef on records
// carrying any flag combination, over scratch left dirty by an earlier
// chunk: one fetch op per record, and at several line sizes the
// reference's fetches collapsed into runs of consecutive same-line
// fetches. A lane whose IL1 bank takes runs must hand it exactly those
// runs, cut at every chunk and phase boundary.
func FuzzClassify(f *testing.F) {
	var all []byte
	for flags := byte(0); flags < 16; flags++ {
		all = append(all, flags, flags%4, flags, 0x10, flags, 0x20)
	}
	f.Add(all)
	f.Add([]byte{3, 2, 0, 1, 8, 0})                   // load with store
	f.Add([]byte{14, 1, 4, 0, 12, 0})                 // store, branch and taken
	f.Add([]byte{8, 3, 0, 0, 0, 0, 2, 5, 4, 0, 6, 0}) // taken without a branch; use distance on a store

	// Fetch line runs: one line across a phase change, and 32 B lines
	// two to a 64 B line.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 16, 0, 4, 1, 0, 0, 16, 0, 8, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0x20, 1, 0, 0, 0, 0, 0x40, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := fuzzInsts(data)
		wi, wd, wu, wmix := classifyRef(insts)
		iops := make([]PortOp, batchSize)
		dops := make([]PortOp, batchSize)
		udist := make([]uint8, batchSize)
		for _, shift := range []int{-1, 0, 2, 5, 6, 16} {
			for i := range dops {
				iops[i] = PortOp{Addr: 0xDEAD, Write: true, Rep: 7}
				dops[i] = PortOp{Addr: 0xBEEF, Write: true, Rep: 7}
				udist[i] = 0xFF
			}
			ni, nd, mix := classify(insts, iops, dops, udist, shift)
			if mix != wmix {
				t.Fatalf("shift %d: mix %+v, want %+v", shift, mix, wmix)
			}
			if nd != len(wd) {
				t.Fatalf("shift %d: %d data ops, want %d", shift, nd, len(wd))
			}
			want := wi
			if shift >= 0 {
				want = collapseRuns(wi, uint(shift))
			}
			if ni != len(want) {
				t.Fatalf("shift %d: %d fetch ops, want %d", shift, ni, len(want))
			}
			for i, op := range want {
				if iops[i] != op {
					t.Fatalf("shift %d: fetch op %d: %+v, want %+v", shift, i, iops[i], op)
				}
			}
			if nd > 0 && (!reflect.DeepEqual(dops[:nd], wd) || !reflect.DeepEqual(udist[:nd], wu)) {
				t.Fatalf("shift %d: data ops %+v / use distances %v, want %+v / %v", shift, dops[:nd], udist[:nd], wd, wu)
			}
		}
		if len(insts) > 0 {
			checkLaneRuns(t, insts, 5)
		}
	})
}

// TestCountTrue holds the unrolled miss count to a per-entry count at
// every length across the unroll's tail.
func TestCountTrue(t *testing.T) {
	row := make([]bool, 70)
	for i := range row {
		row[i] = i%3 == 0 || i%7 == 0
	}
	for n := 0; n <= len(row); n++ {
		var want uint64
		for _, v := range row[:n] {
			if v {
				want++
			}
		}
		if got := countTrue(row[:n]); got != want {
			t.Fatalf("countTrue over %d entries = %d, want %d", n, got, want)
		}
	}
}
