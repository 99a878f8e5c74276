package bench

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"edcache/internal/cache"
	"edcache/internal/trace"
)

// digestInsts is the record count each reference digest covers: the
// default trace length of every registered workload.
const digestInsts = 300_000

// referenceDigests pins the bytes every generator family emits: the
// FNV-64a digest of each workload's first 300 000 records, packed by
// packInst. The table was computed from the per-instruction generators
// that preceded the in-place fill loops, so it holds those loops to
// the exact draws, draw order and state updates of their predecessors.
// The goldens pin the same bytes end to end; this table names the
// workload whose stream moved.
var referenceDigests = map[string]uint64{
	"adpcm_c":         0x62b65098959c5374,
	"adpcm_d":         0x89644bc27907f4e4,
	"epic_c":          0x44514df04395c663,
	"epic_d":          0xc8baf6468812e160,
	"g721_c":          0x2b5c8d2122caaf9e,
	"g721_d":          0x1cc35b6dd42fe726,
	"gsm_c":           0xb5ca77c6fa7749fd,
	"gsm_d":           0xe0f13343bb1d97b5,
	"mpeg2_c":         0x961261949129404b,
	"mpeg2_d":         0x169b409b30be94da,
	"ptrchase_s":      0x3774ec09d2a395ae,
	"ptrchase_l":      0xc1047b0bbc8c1a50,
	"stencil_s":       0x79c264eb9fc7f99e,
	"stencil_dsp":     0x41e55a6b2d3cde50,
	"branchy_tight":   0x75ddad093262b0d9,
	"branchy_ctrl":    0x288789a84a446e92,
	"phased_mix":      0xe4aa4d72acb1ca78,
	"adversarial_l1":  0x3cc035bc0a64d199,
	"cal_stencil_fit": 0x92ca508ee1a8e010,
	"cal_chase_fit":   0x72ea21e54704daac,
	"cal_stencil_x2":  0xcb94ce6f5c53c900,
	"cal_chase_x2":    0x0652fd093f9f26a4,
	"cal_stencil_x8":  0xe1135bdff53c27e0,
	"cal_chase_x8":    0x2339fba5a0a29a76,
}

// packInst appends a record in a fixed little-endian layout: PC, Addr,
// UseDist, the flag bits (load, store, branch, taken from bit 0 up)
// and Phase — 11 bytes that cover every field of trace.Inst.
func packInst(b []byte, in trace.Inst) []byte {
	var flags byte
	for i, f := range []bool{in.IsLoad, in.IsStore, in.IsBranch, in.Taken} {
		if f {
			flags |= 1 << i
		}
	}
	b = binary.LittleEndian.AppendUint32(b, in.PC)
	b = binary.LittleEndian.AppendUint32(b, in.Addr)
	return append(b, in.UseDist, flags, in.Phase)
}

// streamDigest drains s in windows of the given size and returns the
// digest of its records and their count.
func streamDigest(s trace.Stream, window int) (uint64, int) {
	h := fnv.New64a()
	var buf []byte
	n := 0
	for w := s.NextSlice(window); len(w) > 0; w = s.NextSlice(window) {
		buf = buf[:0]
		for _, in := range w {
			buf = packInst(buf, in)
		}
		h.Write(buf)
		n += len(w)
	}
	return h.Sum64(), n
}

// digestWorkloads is every workload the table covers: the registered
// corpus and the calibrated instances at the paper's 8 KB L1 geometry.
func digestWorkloads() []Workload {
	ws := Full()
	for _, w := range CalibratedCorpus(cache.Config{Sets: 32, Ways: 8, LineBytes: 32}) {
		ws = append(ws, w.ScaledTo(digestInsts))
	}
	return ws
}

// TestGeneratorsMatchReferenceDigests holds every generator family to
// the committed digest table twice: as a stream drained in an odd
// window size (so windows split loop bodies and phases at arbitrary
// points) and as the slab an ArenaCache builds.
func TestGeneratorsMatchReferenceDigests(t *testing.T) {
	ws := digestWorkloads()
	if len(ws) != 24 {
		t.Fatalf("%d workloads, want the 18 registered and 6 calibrated", len(ws))
	}
	seen := map[Pattern]bool{}
	for _, w := range ws {
		w = w.ScaledTo(digestInsts)
		seen[w.Pattern] = true
		want, ok := referenceDigests[w.Name]
		if !ok {
			t.Errorf("%s: no reference digest", w.Name)
			continue
		}
		if got, n := streamDigest(w.Stream(), 1237); got != want || n != digestInsts {
			t.Errorf("%s: stream digest %#016x over %d records, want %#016x over %d", w.Name, got, n, want, digestInsts)
		}
		if got, n := streamDigest(NewArenaCache().Get(w).Cursor(), 8192); got != want || n != digestInsts {
			t.Errorf("%s: slab digest %#016x over %d records, want %#016x over %d", w.Name, got, n, want, digestInsts)
		}
	}
	if len(seen) != int(PatternAdversarial)+1 {
		t.Errorf("table covers %d generator families, want %d", len(seen), int(PatternAdversarial)+1)
	}
	if len(referenceDigests) != len(ws) {
		t.Errorf("table holds %d digests for %d workloads", len(referenceDigests), len(ws))
	}
}
