package ecc

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperWidths are the tag and data word widths used throughout the paper.
var paperWidths = []int{26, 32}

func TestSECDEDGeometry(t *testing.T) {
	for _, k := range paperWidths {
		c, err := NewSECDED(k)
		if err != nil {
			t.Fatalf("NewSECDED(%d): %v", k, err)
		}
		if got := c.CheckBits(); got != 7 {
			t.Errorf("k=%d: CheckBits = %d, want the paper's 7", k, got)
		}
		if got := TotalBits(c); got != k+7 {
			t.Errorf("k=%d: TotalBits = %d, want %d", k, got, k+7)
		}
	}
}

func TestSECDEDColumnsOddAndDistinct(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewSECDED(k)
		seen := map[uint32]int{}
		for i := 0; i < TotalBits(c); i++ {
			col := c.Column(i)
			if col == 0 {
				t.Fatalf("k=%d: column %d is zero", k, i)
			}
			if bits.OnesCount32(col)%2 == 0 {
				t.Errorf("k=%d: column %d weight %d is even (violates Hsiao construction)",
					k, i, bits.OnesCount32(col))
			}
			if prev, dup := seen[col]; dup {
				t.Errorf("k=%d: columns %d and %d identical (%#x)", k, prev, i, col)
			}
			seen[col] = i
		}
	}
}

func TestSECDEDRowBalance(t *testing.T) {
	// Hsiao's construction balances row weights; the greedy selection
	// must keep max-min row weight within the weight of one column.
	c, _ := NewSECDED(32)
	ws := c.RowWeights()
	minW, maxW := ws[0], ws[0]
	for _, w := range ws {
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW-minW > 3 {
		t.Errorf("row weights %v unbalanced (spread %d > 3)", ws, maxW-minW)
	}
}

func TestSECDEDRoundTripClean(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewSECDED(k)
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 2000; trial++ {
			data := rng.Uint64() & DataMask(c)
			got, res := c.Decode(c.Encode(data))
			if res.Status != OK || got != data {
				t.Fatalf("k=%d data=%#x: Decode = (%#x, %+v), want clean round trip", k, data, got, res)
			}
		}
	}
}

func TestSECDEDCorrectsEverySingleError(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewSECDED(k)
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 200; trial++ {
			data := rng.Uint64() & DataMask(c)
			cw := c.Encode(data)
			for pos := 0; pos < TotalBits(c); pos++ {
				got, res := c.Decode(cw ^ 1<<uint(pos))
				if res.Status != Corrected || res.Corrected != 1 {
					t.Fatalf("k=%d pos=%d: status %+v, want single correction", k, pos, res)
				}
				if got != data {
					t.Fatalf("k=%d pos=%d: data %#x, want %#x", k, pos, got, data)
				}
			}
		}
	}
}

func TestSECDEDDetectsEveryDoubleError(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewSECDED(k)
		rng := rand.New(rand.NewSource(3))
		n := TotalBits(c)
		for trial := 0; trial < 20; trial++ {
			data := rng.Uint64() & DataMask(c)
			cw := c.Encode(data)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					_, res := c.Decode(cw ^ 1<<uint(i) ^ 1<<uint(j))
					if res.Status != Detected {
						t.Fatalf("k=%d errors at (%d,%d): status %v, want Detected (Hsiao guarantees no double-error miscorrection)",
							k, i, j, res.Status)
					}
				}
			}
		}
	}
}

func TestSECDEDCheckBitErrorDoesNotTouchData(t *testing.T) {
	c, _ := NewSECDED(32)
	cw := c.Encode(0xDEADBEEF)
	for j := 0; j < c.CheckBits(); j++ {
		got, res := c.Decode(cw ^ 1<<uint(32+j))
		if res.Status != Corrected || got != 0xDEADBEEF {
			t.Fatalf("check-bit %d error: (%#x, %+v)", j, got, res)
		}
	}
}

func TestSECDEDMinimalGeometries(t *testing.T) {
	cases := []struct{ k, wantR int }{
		{8, 5},
		{16, 6},
		{26, 6},
		{32, 7},
		{64, 8},
	}
	for _, tc := range cases {
		if tc.k+tc.wantR > 64 {
			continue
		}
		c, err := NewSECDEDMinimal(tc.k)
		if err != nil {
			t.Fatalf("NewSECDEDMinimal(%d): %v", tc.k, err)
		}
		if c.CheckBits() != tc.wantR {
			t.Errorf("k=%d: minimal check bits = %d, want %d", tc.k, c.CheckBits(), tc.wantR)
		}
		// Spot-check correction still works at the minimal geometry.
		data := uint64(0x5A5A5A5A5A5A5A5A) & DataMask(c)
		cw := c.Encode(data)
		for pos := 0; pos < TotalBits(c); pos += 3 {
			got, res := c.Decode(cw ^ 1<<uint(pos))
			if res.Status != Corrected || got != data {
				t.Fatalf("k=%d pos=%d: (%#x,%v)", tc.k, pos, got, res.Status)
			}
		}
	}
}

func TestSECDEDRejectsImpossibleGeometry(t *testing.T) {
	if _, err := NewSECDED(58); err == nil {
		t.Error("NewSECDED(58) should fail: codeword would exceed 64 bits")
	}
	// 57 odd-weight 7-bit columns exist, so k=57 is the widest word the
	// fixed 7-check-bit geometry supports within a 64-bit codeword.
	if _, err := NewSECDED(57); err != nil {
		t.Errorf("NewSECDED(57) should succeed: %v", err)
	}
	if _, err := NewSECDED(0); err == nil {
		t.Error("NewSECDED(0) should fail")
	}
}

func TestSECDEDQuickProperties(t *testing.T) {
	c, _ := NewSECDED(32)
	// Property: a round trip through any single-bit fault recovers data.
	prop := func(data uint64, pos uint8) bool {
		data &= DataMask(c)
		p := int(pos) % TotalBits(c)
		got, res := c.Decode(c.Encode(data) ^ 1<<uint(p))
		return got == data && res.Status == Corrected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
	// Property: encode is systematic (data bits unchanged in codeword).
	sys := func(data uint64) bool {
		data &= DataMask(c)
		return c.Encode(data)&DataMask(c) == data
	}
	if err := quick.Check(sys, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestParityDetectsOddErrors(t *testing.T) {
	c := NewParity(32)
	cw := c.Encode(0x12345678)
	if _, res := c.Decode(cw); res.Status != OK {
		t.Fatalf("clean decode: %v", res.Status)
	}
	for pos := 0; pos < 33; pos++ {
		if _, res := c.Decode(cw ^ 1<<uint(pos)); res.Status != Detected {
			t.Errorf("single error at %d undetected", pos)
		}
	}
	// Double errors are invisible to parity (by design).
	if _, res := c.Decode(cw ^ 0b11); res.Status != OK {
		t.Errorf("double error should be invisible to parity, got %v", res.Status)
	}
}

func TestIdentityCodec(t *testing.T) {
	c := NewIdentity(26)
	if c.CheckBits() != 0 || c.DataBits() != 26 {
		t.Fatalf("identity geometry: %d+%d", c.DataBits(), c.CheckBits())
	}
	data := uint64(0x2FFFFFF)
	got, res := c.Decode(c.Encode(data))
	if got != data&DataMask(c) || res.Status != OK {
		t.Errorf("identity round trip: (%#x, %v)", got, res.Status)
	}
}

func TestNewFactory(t *testing.T) {
	for _, kind := range []Kind{KindNone, KindParity, KindSECDED, KindDECTED} {
		c, err := New(kind, 32)
		if err != nil {
			t.Fatalf("New(%v, 32): %v", kind, err)
		}
		if c.Kind() != kind {
			t.Errorf("New(%v).Kind() = %v", kind, c.Kind())
		}
		if c.CheckBits() != kind.CheckBits() {
			t.Errorf("%v: codec check bits %d != Kind.CheckBits %d", kind, c.CheckBits(), kind.CheckBits())
		}
	}
	if _, err := New(Kind(99), 32); err == nil {
		t.Error("New with invalid kind should fail")
	}
}

func TestKindStringsAndBudgets(t *testing.T) {
	if KindSECDED.CheckBits() != 7 || KindDECTED.CheckBits() != 13 {
		t.Errorf("paper check-bit budgets violated: SECDED=%d DECTED=%d",
			KindSECDED.CheckBits(), KindDECTED.CheckBits())
	}
	if KindSECDED.String() != "SECDED" || KindDECTED.String() != "DECTED" {
		t.Errorf("kind names: %q %q", KindSECDED, KindDECTED)
	}
}
