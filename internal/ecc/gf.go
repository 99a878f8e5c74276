package ecc

import "fmt"

// Field is a binary extension field GF(2^m) represented with log/antilog
// tables over a primitive polynomial. It is sized for the BCH codes used
// by the DECTED construction (m = 6, so positions up to n = 63 exist, more
// than enough for 32+12-bit shortened codewords).
type Field struct {
	n   int      // 2^m - 1, the multiplicative order
	exp []uint16 // exp[i] = α^i, i in [0, 2n)
	log []int    // log[x] = i with α^i = x, defined for x in [1, 2^m)
}

// NewField builds GF(2^m) from the given primitive polynomial (with the
// leading x^m term included, e.g. 0b1000011 = x^6+x+1 for m=6).
func NewField(m int, poly uint32) (*Field, error) {
	if m < 2 || m > 16 {
		return nil, fmt.Errorf("ecc: field degree %d out of range [2,16]", m)
	}
	if poly>>uint(m) != 1 {
		return nil, fmt.Errorf("ecc: polynomial %#x is not monic of degree %d", poly, m)
	}
	f := &Field{
		n:   (1 << uint(m)) - 1,
		exp: make([]uint16, 2*((1<<uint(m))-1)),
		log: make([]int, 1<<uint(m)),
	}
	x := uint32(1)
	for i := 0; i < f.n; i++ {
		if x == 1 && i != 0 {
			return nil, fmt.Errorf("ecc: polynomial %#x is not primitive for GF(2^%d)", poly, m)
		}
		f.exp[i] = uint16(x)
		f.log[x] = i
		x <<= 1
		if x>>uint(m) != 0 {
			x ^= poly
		}
	}
	for i := f.n; i < 2*f.n; i++ {
		f.exp[i] = f.exp[i-f.n]
	}
	return f, nil
}

// N returns the multiplicative order 2^m - 1.
func (f *Field) N() int { return f.n }

// Alpha returns α^i for any non-negative i.
func (f *Field) Alpha(i int) uint16 { return f.exp[i%f.n] }

// Log returns the discrete logarithm of x; x must be non-zero.
func (f *Field) Log(x uint16) int {
	if x == 0 {
		panic("ecc: log of zero field element")
	}
	return f.log[x]
}

// Mul multiplies two field elements.
func (f *Field) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b; b must be non-zero.
func (f *Field) Div(a, b uint16) uint16 {
	if b == 0 {
		panic("ecc: division by zero field element")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]-f.log[b]+f.n]
}

// Pow returns a^e (with 0^0 = 1).
func (f *Field) Pow(a uint16, e int) uint16 {
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	le := (f.log[a] * e) % f.n
	if le < 0 {
		le += f.n
	}
	return f.exp[le]
}

// MinimalPoly computes the minimal polynomial over GF(2) of α^e as a bit
// vector (bit i = coefficient of x^i). It multiplies (x - α^(e·2^j)) over
// the conjugacy class of e.
func (f *Field) MinimalPoly(e int) uint64 {
	// Collect the conjugacy class {e, 2e, 4e, ...} mod n.
	class := []int{}
	seen := map[int]bool{}
	for c := e % f.n; !seen[c]; c = (2 * c) % f.n {
		seen[c] = true
		class = append(class, c)
	}
	// poly is a polynomial with GF(2^m) coefficients, poly[i] = coeff of x^i.
	poly := []uint16{1}
	for _, c := range class {
		root := f.Alpha(c)
		next := make([]uint16, len(poly)+1)
		for i, coef := range poly {
			next[i+1] ^= coef            // x * poly
			next[i] ^= f.Mul(coef, root) // root * poly
		}
		poly = next
	}
	var bits uint64
	for i, coef := range poly {
		if coef > 1 {
			panic("ecc: minimal polynomial has non-binary coefficient")
		}
		if coef == 1 {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// polyMulGF2 multiplies two GF(2) polynomials in bit-vector form.
func polyMulGF2(a, b uint64) uint64 {
	var out uint64
	for i := 0; i < 64 && b>>uint(i) != 0; i++ {
		if b&(1<<uint(i)) != 0 {
			out ^= a << uint(i)
		}
	}
	return out
}

// polyDeg returns the degree of a GF(2) polynomial (-1 for the zero poly).
func polyDeg(p uint64) int {
	d := -1
	for p != 0 {
		d++
		p >>= 1
	}
	return d
}

// polyModGF2 reduces a modulo m over GF(2).
func polyModGF2(a, m uint64) uint64 {
	dm := polyDeg(m)
	for {
		da := polyDeg(a)
		if da < dm {
			return a
		}
		a ^= m << uint(da-dm)
	}
}
