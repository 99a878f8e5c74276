package ecc

import "fmt"

// Interleaved wraps N copies of an inner codec over an N·k-bit word,
// bit-interleaving the codewords in storage: physical bit p belongs to
// lane p mod N. A burst (multi-bit upset) of up to N physically adjacent
// bits lands in N distinct lanes, one bit each, so a single-error-
// correcting inner code repairs the whole burst — the standard SRAM
// defence against multi-cell upsets, and the natural extension of the
// paper's architecture to MBU-prone nodes (future-work territory the
// ablation A4 explores).
type Interleaved struct {
	inner []Codec
	n     int
	k     int // total data bits = n · inner.DataBits
}

// NewInterleaved builds an N-lane interleaved codec. All lanes use the
// same code family and width; total codeword length must fit in 64 bits.
func NewInterleaved(kind Kind, laneDataBits, lanes int) (*Interleaved, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("ecc: %d interleave lanes", lanes)
	}
	inner := make([]Codec, lanes)
	for i := range inner {
		c, err := New(kind, laneDataBits)
		if err != nil {
			return nil, err
		}
		inner[i] = c
	}
	total := lanes * TotalBits(inner[0])
	if total > 64 {
		return nil, fmt.Errorf("ecc: interleaved codeword length %d exceeds 64", total)
	}
	return &Interleaved{inner: inner, n: lanes, k: lanes * laneDataBits}, nil
}

// Name implements Codec.
func (c *Interleaved) Name() string {
	return fmt.Sprintf("%dx-interleaved %s", c.n, c.inner[0].Name())
}

// Kind implements Codec.
func (c *Interleaved) Kind() Kind { return c.inner[0].Kind() }

// DataBits implements Codec.
func (c *Interleaved) DataBits() int { return c.k }

// CheckBits implements Codec.
func (c *Interleaved) CheckBits() int { return c.n * c.inner[0].CheckBits() }

// Lanes returns the interleave degree (the burst length it tolerates).
func (c *Interleaved) Lanes() int { return c.n }

// Encode implements Codec: lane i receives data bits i, i+n, i+2n, …,
// and the lane codewords are re-interleaved bit by bit.
func (c *Interleaved) Encode(data uint64) uint64 {
	data &= DataMask(c)
	laneLen := TotalBits(c.inner[0])
	var out uint64
	for lane := 0; lane < c.n; lane++ {
		var laneData uint64
		for i := 0; i < c.inner[lane].DataBits(); i++ {
			bit := (data >> uint(lane+i*c.n)) & 1
			laneData |= bit << uint(i)
		}
		cw := c.inner[lane].Encode(laneData)
		for i := 0; i < laneLen; i++ {
			bit := (cw >> uint(i)) & 1
			out |= bit << uint(lane+i*c.n)
		}
	}
	return out
}

// Decode implements Codec: each lane decodes independently; the word's
// status is the worst lane status and corrections accumulate.
func (c *Interleaved) Decode(word uint64) (uint64, Result) {
	laneLen := TotalBits(c.inner[0])
	var data uint64
	res := Result{Status: OK}
	for lane := 0; lane < c.n; lane++ {
		var cw uint64
		for i := 0; i < laneLen; i++ {
			bit := (word >> uint(lane+i*c.n)) & 1
			cw |= bit << uint(i)
		}
		d, r := c.inner[lane].Decode(cw)
		for i := 0; i < c.inner[lane].DataBits(); i++ {
			bit := (d >> uint(i)) & 1
			data |= bit << uint(lane+i*c.n)
		}
		res.Corrected += r.Corrected
		if r.Status == Detected {
			res.Status = Detected
		} else if r.Status == Corrected && res.Status != Detected {
			res.Status = Corrected
		}
	}
	return data, res
}
