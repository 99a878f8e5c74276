package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldConstruction(t *testing.T) {
	f, err := NewField(6, primPolyGF64)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 63 {
		t.Fatalf("N = %d, want 63", f.N())
	}
	// α generates the full multiplicative group.
	seen := map[uint16]bool{}
	for i := 0; i < f.N(); i++ {
		a := f.Alpha(i)
		if a == 0 || seen[a] {
			t.Fatalf("α^%d = %d repeated or zero", i, a)
		}
		seen[a] = true
	}
}

func TestFieldAxioms(t *testing.T) {
	f, _ := NewField(6, primPolyGF64)
	for a := uint16(1); a < 64; a++ {
		if got := f.Mul(a, f.Div(1, a)); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
		if got := f.Div(a, a); got != 1 {
			t.Fatalf("a/a = %d for a=%d", got, a)
		}
		if got := f.Pow(a, 63); got != 1 {
			t.Fatalf("a^63 = %d for a=%d (Lagrange)", got, a)
		}
	}
	// Associativity and distributivity spot checks.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a, b, c := uint16(rng.Intn(64)), uint16(rng.Intn(64)), uint16(rng.Intn(64))
		if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
			t.Fatalf("associativity fails for %d,%d,%d", a, b, c)
		}
		if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
			t.Fatalf("distributivity fails for %d,%d,%d", a, b, c)
		}
	}
}

func TestFieldRejectsNonPrimitive(t *testing.T) {
	// x^6 + x^3 + 1 has order 9·... (not primitive over GF(2^6)).
	if _, err := NewField(6, 0x49); err == nil {
		t.Error("NewField should reject the non-primitive polynomial x^6+x^3+1")
	}
}

func TestMinimalPolynomials(t *testing.T) {
	f, _ := NewField(6, primPolyGF64)
	m1 := f.MinimalPoly(1)
	if m1 != primPolyGF64 {
		t.Errorf("m1(x) = %#x, want the primitive polynomial %#x", m1, primPolyGF64)
	}
	m3 := f.MinimalPoly(3)
	if polyDeg(m3) != 6 {
		t.Errorf("deg m3 = %d, want 6 (conjugacy class of 3 has size 6)", polyDeg(m3))
	}
	// α^3 must be a root of m3: evaluate via repeated Horner in the field.
	root := f.Alpha(3)
	var acc uint16
	for i := polyDeg(m3); i >= 0; i-- {
		acc = f.Mul(acc, root)
		if m3&(1<<uint(i)) != 0 {
			acc ^= 1
		}
	}
	if acc != 0 {
		t.Errorf("m3(α³) = %d, want 0", acc)
	}
}

func TestDECTEDGeometry(t *testing.T) {
	for _, k := range paperWidths {
		c, err := NewDECTED(k)
		if err != nil {
			t.Fatalf("NewDECTED(%d): %v", k, err)
		}
		if got := c.CheckBits(); got != 13 {
			t.Errorf("k=%d: CheckBits = %d, want the paper's 13", k, got)
		}
		if polyDeg(c.Generator()) != 12 {
			t.Errorf("k=%d: generator degree %d, want 12", k, polyDeg(c.Generator()))
		}
	}
}

func TestDECTEDValidCodewords(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewDECTED(k)
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 2000; trial++ {
			data := rng.Uint64() & DataMask(c)
			cw := c.Encode(data)
			if cw&DataMask(c) != data {
				t.Fatalf("k=%d: encode not systematic", k)
			}
			got, res := c.Decode(cw)
			if res.Status != OK || got != data {
				t.Fatalf("k=%d data=%#x: clean decode = (%#x, %+v)", k, data, got, res)
			}
		}
	}
}

func TestDECTEDCorrectsEverySingleError(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewDECTED(k)
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 50; trial++ {
			data := rng.Uint64() & DataMask(c)
			cw := c.Encode(data)
			for pos := 0; pos < TotalBits(c); pos++ {
				got, res := c.Decode(cw ^ 1<<uint(pos))
				if res.Status != Corrected || got != data {
					t.Fatalf("k=%d pos=%d: (%#x, %+v), want corrected %#x", k, pos, got, res, data)
				}
			}
		}
	}
}

func TestDECTEDCorrectsEveryDoubleError(t *testing.T) {
	for _, k := range paperWidths {
		c, _ := NewDECTED(k)
		rng := rand.New(rand.NewSource(13))
		n := TotalBits(c)
		for trial := 0; trial < 10; trial++ {
			data := rng.Uint64() & DataMask(c)
			cw := c.Encode(data)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					got, res := c.Decode(cw ^ 1<<uint(i) ^ 1<<uint(j))
					if res.Status != Corrected || got != data {
						t.Fatalf("k=%d errors (%d,%d): (%#x, %+v), want corrected %#x",
							k, i, j, got, res, data)
					}
					if res.Corrected != 2 {
						t.Fatalf("k=%d errors (%d,%d): corrected %d bits, want 2", k, i, j, res.Corrected)
					}
				}
			}
		}
	}
}

func TestDECTEDDetectsEveryTripleError(t *testing.T) {
	// Exhaustive over all C(n,3) triples for one word per width: every
	// weight-3 pattern must be flagged Detected, never miscorrected —
	// this is the property Scenario B relies on (a hard fault plus a
	// soft error in the same word is corrected; anything beyond is
	// detected).
	for _, k := range paperWidths {
		c, _ := NewDECTED(k)
		data := uint64(0x1234567) & DataMask(c)
		cw := c.Encode(data)
		n := TotalBits(c)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				for l := j + 1; l < n; l++ {
					_, res := c.Decode(cw ^ 1<<uint(i) ^ 1<<uint(j) ^ 1<<uint(l))
					if res.Status != Detected {
						t.Fatalf("k=%d triple (%d,%d,%d): status %v, want Detected",
							k, i, j, l, res.Status)
					}
				}
			}
		}
	}
}

func TestDECTEDHardPlusSoftScenario(t *testing.T) {
	// The paper's Scenario B use case: one hard faulty bit (stuck-at) in
	// a word plus one soft error must still decode correctly at ULE mode.
	c, _ := NewDECTED(32)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 500; trial++ {
		data := rng.Uint64() & DataMask(c)
		cw := c.Encode(data)
		hard := rng.Intn(TotalBits(c))
		soft := rng.Intn(TotalBits(c))
		// A stuck-at fault flips the stored bit only if it disagrees.
		faulty := cw
		stuckVal := uint64(rng.Intn(2))
		if (cw>>uint(hard))&1 != stuckVal {
			faulty ^= 1 << uint(hard)
		}
		faulty ^= 1 << uint(soft)
		got, res := c.Decode(faulty)
		if got != data || res.Status == Detected {
			t.Fatalf("trial %d: hard=%d soft=%d: (%#x, %v), want silent recovery of %#x",
				trial, hard, soft, got, res.Status, data)
		}
	}
}

func TestDECTEDRejectsImpossibleGeometry(t *testing.T) {
	if _, err := NewDECTED(52); err == nil {
		t.Error("NewDECTED(52) should fail: exceeds BCH(63) after 12 check bits")
	}
	if _, err := NewDECTED(0); err == nil {
		t.Error("NewDECTED(0) should fail")
	}
}

func TestDECTEDQuickProperties(t *testing.T) {
	c, _ := NewDECTED(32)
	n := TotalBits(c)
	// Property: any ≤2-bit corruption is transparently repaired.
	prop := func(data uint64, a, b uint8) bool {
		data &= DataMask(c)
		i, j := int(a)%n, int(b)%n
		cw := c.Encode(data) ^ 1<<uint(i) ^ 1<<uint(j) // j==i ⇒ weight 0 or self-cancel
		got, res := c.Decode(cw)
		return got == data && res.Status != Detected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
