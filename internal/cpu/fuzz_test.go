package cpu

import (
	"encoding/binary"
	"reflect"
	"testing"

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

// fuzzInsts decodes up to one chunk of records, 6 bytes each: flag bits
// (load, store, branch, taken), the use distance, and 16-bit PC and
// data address.
func fuzzInsts(data []byte) []trace.Inst {
	var insts []trace.Inst
	for ; len(data) >= 6 && len(insts) < batchSize; data = data[6:] {
		f := data[0]
		insts = append(insts, trace.Inst{
			IsLoad: f&1 != 0, IsStore: f&2 != 0, IsBranch: f&4 != 0, Taken: f&8 != 0,
			UseDist: data[1],
			PC:      uint32(binary.LittleEndian.Uint16(data[2:])),
			Addr:    uint32(binary.LittleEndian.Uint16(data[4:])),
		})
	}
	return insts
}

// FuzzClassify holds the branch-free classify to classifyRef on records
// carrying any flag combination, over scratch left dirty by an earlier
// chunk.
func FuzzClassify(f *testing.F) {
	var all []byte
	for flags := byte(0); flags < 16; flags++ {
		all = append(all, flags, flags%4, flags, 0x10, flags, 0x20)
	}
	f.Add(all)
	f.Add([]byte{3, 2, 0, 1, 8, 0})                   // load with store
	f.Add([]byte{14, 1, 4, 0, 12, 0})                 // store, branch and taken
	f.Add([]byte{8, 3, 0, 0, 0, 0, 2, 5, 4, 0, 6, 0}) // taken without a branch; use distance on a store
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := fuzzInsts(data)
		iops := make([]PortOp, batchSize)
		dops := make([]PortOp, batchSize)
		udist := make([]uint8, batchSize)
		for i := range dops {
			iops[i] = PortOp{Addr: 0xDEAD, Write: true}
			dops[i] = PortOp{Addr: 0xBEEF, Write: true}
			udist[i] = 0xFF
		}
		nd, mix := classify(insts, iops, dops, udist)
		wi, wd, wu, wmix := classifyRef(insts)
		if mix != wmix {
			t.Fatalf("mix %+v, want %+v", mix, wmix)
		}
		if nd != len(wd) {
			t.Fatalf("%d data ops, want %d", nd, len(wd))
		}
		for i, op := range wi {
			if iops[i] != op {
				t.Fatalf("fetch %d: %+v, want %+v", i, iops[i], op)
			}
		}
		if nd > 0 && (!reflect.DeepEqual(dops[:nd], wd) || !reflect.DeepEqual(udist[:nd], wu)) {
			t.Fatalf("data ops %+v / use distances %v, want %+v / %v", dops[:nd], udist[:nd], wd, wu)
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
