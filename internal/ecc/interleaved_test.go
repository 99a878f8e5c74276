package ecc

import (
	"math/rand"
	"testing"
)

func TestInterleavedGeometry(t *testing.T) {
	c, err := NewInterleaved(KindSECDED, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.DataBits() != 32 || c.Lanes() != 4 {
		t.Errorf("geometry: %d data bits, %d lanes", c.DataBits(), c.Lanes())
	}
	// 4 lanes × 7 check bits (fixed SECDED budget).
	if c.CheckBits() != 28 {
		t.Errorf("check bits %d", c.CheckBits())
	}
	if _, err := NewInterleaved(KindSECDED, 32, 4); err == nil {
		t.Error("oversized interleave accepted")
	}
	if _, err := NewInterleaved(KindSECDED, 8, 0); err == nil {
		t.Error("zero lanes accepted")
	}
}

func TestInterleavedRoundTrip(t *testing.T) {
	c, _ := NewInterleaved(KindSECDED, 8, 4)
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 500; trial++ {
		data := rng.Uint64() & DataMask(c)
		got, res := c.Decode(c.Encode(data))
		if got != data || res.Status != OK {
			t.Fatalf("round trip: %#x -> %#x (%v)", data, got, res.Status)
		}
	}
}

func TestInterleavedCorrectsBursts(t *testing.T) {
	// The point of interleaving: a physically contiguous burst of up to
	// N bits is corrected by N single-error corrections, for every
	// burst position.
	c, _ := NewInterleaved(KindSECDED, 8, 4)
	n := TotalBits(c)
	data := uint64(0xDEADBEEF) & DataMask(c)
	cw := c.Encode(data)
	for burstLen := 1; burstLen <= 4; burstLen++ {
		for start := 0; start+burstLen <= n; start++ {
			corrupted := cw
			for b := 0; b < burstLen; b++ {
				corrupted ^= 1 << uint(start+b)
			}
			got, res := c.Decode(corrupted)
			if got != data || res.Status == Detected {
				t.Fatalf("burst len %d at %d: (%#x, %v), want %#x",
					burstLen, start, got, res.Status, data)
			}
			if res.Corrected != burstLen {
				t.Fatalf("burst len %d at %d: corrected %d", burstLen, start, res.Corrected)
			}
		}
	}
}

func TestInterleavedDetectsFiveBitBursts(t *testing.T) {
	// A burst one longer than the interleave degree puts two errors in
	// one lane: SECDED in that lane detects it.
	c, _ := NewInterleaved(KindSECDED, 8, 4)
	data := uint64(0x01020304) & DataMask(c)
	cw := c.Encode(data)
	n := TotalBits(c)
	for start := 0; start+5 <= n; start++ {
		corrupted := cw
		for b := 0; b < 5; b++ {
			corrupted ^= 1 << uint(start+b)
		}
		if _, res := c.Decode(corrupted); res.Status != Detected {
			t.Fatalf("5-bit burst at %d: status %v, want Detected", start, res.Status)
		}
	}
}

func TestPlainSECDEDFailsAdjacentDouble(t *testing.T) {
	// Contrast for the MBU story: non-interleaved SECDED only *detects*
	// an adjacent double — it cannot correct it.
	c, _ := NewSECDED(32)
	cw := c.Encode(0x55AA55AA)
	if _, res := c.Decode(cw ^ 0b11); res.Status != Detected {
		t.Errorf("adjacent double on plain SECDED: %v, want Detected", res.Status)
	}
}
