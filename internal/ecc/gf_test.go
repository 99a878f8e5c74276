package ecc

import (
	"math/rand"
	"testing"
)

// naiveDeg scans for the highest set bit, one position at a time.
func naiveDeg(p uint64) int {
	for d := 63; d >= 0; d-- {
		if p>>uint(d)&1 == 1 {
			return d
		}
	}
	return -1
}

// naiveMod is schoolbook GF(2) long division: walk the dividend's bits
// from the top and subtract (XOR) the aligned divisor under every set
// bit at or above the divisor's degree.
func naiveMod(a, m uint64) uint64 {
	dm := naiveDeg(m)
	for d := 63; d >= dm; d-- {
		if a>>uint(d)&1 == 1 {
			a ^= m << uint(d-dm)
		}
	}
	return a
}

func TestPolyDegAndModMatchLongDivision(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 1 << 63, 1<<63 | 1, ^uint64(0), 0x1F, primPolyGF64}
	check := func(a, m uint64) {
		t.Helper()
		if got, want := polyDeg(a), naiveDeg(a); got != want {
			t.Fatalf("polyDeg(%#x) = %d, want %d", a, got, want)
		}
		if m == 0 {
			return
		}
		if got, want := polyModGF2(a, m), naiveMod(a, m); got != want {
			t.Fatalf("polyModGF2(%#x, %#x) = %#x, want %#x", a, m, got, want)
		}
	}
	for _, a := range edges {
		for _, m := range edges {
			check(a, m)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		// Random widths so every divisor and dividend degree shows up.
		a := rng.Uint64() >> uint(rng.Intn(64))
		m := rng.Uint64() >> uint(rng.Intn(64))
		check(a, m)
	}
}
