package trace

import (
	"reflect"
	"testing"
)

// fillStream is a SliceStream that can also fill, as bench's
// generators do, so NewArena takes its fill path.
type fillStream struct{ SliceStream }

// Fill implements filler.
func (s *fillStream) Fill(dst []Inst) int {
	n := copy(dst, s.Insts[s.pos:])
	s.pos += n
	return n
}

// TestNewArenaHintKeepsRecordsAndFit: whatever the length hint — unknown
// (0), short, exact or long — the slab holds the stream's records and
// phase bit, at exactly its length, both for a stream NewArena drains
// window by window and for one that fills the slab in place.
func TestNewArenaHintKeepsRecordsAndFit(t *testing.T) {
	const n = 3*arenaChunk + 17 // several windows, so a short hint must grow
	for _, phased := range []bool{false, true} {
		src := make([]Inst, n)
		for i := range src {
			src[i] = Inst{PC: uint32(4 * i), Addr: uint32(i * 7), IsLoad: i%3 == 0}
			if phased {
				src[i].Phase = uint8(i / arenaChunk)
			}
		}
		for _, hint := range []int{0, 1, arenaChunk, n - 1, n, n + 1, 2 * n} {
			for _, s := range []Stream{&SliceStream{Insts: src}, &fillStream{SliceStream{Insts: src}}} {
				_, fills := s.(filler)
				a := NewArena(s, hint)
				if !reflect.DeepEqual(a.insts, src) || a.HasPhases() != phased {
					t.Fatalf("phased %v hint %d fills %v: slab differs from the stream (phases %v)", phased, hint, fills, a.HasPhases())
				}
				if cap(a.insts) != len(a.insts) {
					t.Errorf("phased %v hint %d fills %v: cap %d, len %d, want an exact fit", phased, hint, fills, cap(a.insts), len(a.insts))
				}
			}
		}
	}
}
