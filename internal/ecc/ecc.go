// Package ecc implements the error detection and correction codes used by
// the hybrid-voltage cache architecture of Maric et al. (DATE 2013):
// Hsiao single-error-correction double-error-detection (SECDED) codes and
// BCH-based double-error-correction triple-error-detection (DECTED) codes,
// at the tag/data word granularities the paper uses (26 and 32 bits).
//
// Codewords are represented as uint64 values. Bit i of the word is
// coordinate i of the codeword: data bits occupy positions [0, DataBits),
// check bits occupy [DataBits, DataBits+CheckBits). All codecs are
// systematic, so the stored data is recoverable by masking even when the
// decoder is bypassed (as the architecture does at HP mode).
package ecc

import "fmt"

// Kind identifies a code family.
type Kind int

const (
	// KindNone is the absence of coding (scenario A baseline).
	KindNone Kind = iota
	// KindParity is single-bit error detection only.
	KindParity
	// KindSECDED is Hsiao single-error-correct double-error-detect.
	KindSECDED
	// KindDECTED is BCH-based double-error-correct triple-error-detect.
	KindDECTED
)

// String returns the conventional name of the code family.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindParity:
		return "parity"
	case KindSECDED:
		return "SECDED"
	case KindDECTED:
		return "DECTED"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CheckBits returns the number of check bits the paper budgets for this
// code family at tag/data word granularity: 0 for no coding, 1 for parity,
// 7 for SECDED and 13 for DECTED (Section III-C and IV-A of the paper).
func (k Kind) CheckBits() int {
	switch k {
	case KindParity:
		return 1
	case KindSECDED:
		return 7
	case KindDECTED:
		return 13
	default:
		return 0
	}
}

// Status reports the outcome of decoding one codeword.
type Status int

const (
	// OK means the word decoded with no errors present.
	OK Status = iota
	// Corrected means one or more errors were present and repaired.
	Corrected
	// Detected means an uncorrectable error was detected; the returned
	// data must not be trusted.
	Detected
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result describes the outcome of one Decode call.
type Result struct {
	Status    Status
	Corrected int // number of bit positions repaired
}

// Codec encodes and decodes fixed-width words.
type Codec interface {
	// Name identifies the code, e.g. "Hsiao-SECDED(39,32)".
	Name() string
	// Kind reports the code family.
	Kind() Kind
	// DataBits is the word width k.
	DataBits() int
	// CheckBits is the redundancy r; total codeword length is k+r.
	CheckBits() int
	// Encode returns the systematic codeword for the low DataBits bits
	// of data. Bits of data above DataBits must be zero.
	Encode(data uint64) uint64
	// Decode inspects a (possibly corrupted) codeword, repairs what the
	// code guarantees, and returns the recovered data word.
	Decode(word uint64) (uint64, Result)
}

// TotalBits returns the codeword length of c.
func TotalBits(c Codec) int { return c.DataBits() + c.CheckBits() }

// DataMask returns a mask covering the data bits of c's codewords.
func DataMask(c Codec) uint64 { return (uint64(1) << uint(c.DataBits())) - 1 }

// New builds the codec the architecture uses for a given family and word
// width. KindNone returns the identity codec.
func New(kind Kind, dataBits int) (Codec, error) {
	switch kind {
	case KindNone:
		return NewIdentity(dataBits), nil
	case KindParity:
		return NewParity(dataBits), nil
	case KindSECDED:
		return NewSECDED(dataBits)
	case KindDECTED:
		return NewDECTED(dataBits)
	default:
		return nil, fmt.Errorf("ecc: unknown code kind %v", kind)
	}
}

// MustNew is New, panicking on error. It is intended for configurations
// with compile-time-known parameters.
func MustNew(kind Kind, dataBits int) Codec {
	c, err := New(kind, dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

// Identity is the no-coding codec: Encode and Decode are pass-through and
// no errors are ever detected. It models unprotected words.
type Identity struct{ k int }

// NewIdentity returns an Identity codec for k-bit words (1 ≤ k ≤ 64).
func NewIdentity(k int) *Identity {
	if k < 1 || k > 64 {
		panic(fmt.Sprintf("ecc: identity width %d out of range [1,64]", k))
	}
	return &Identity{k: k}
}

// Name implements Codec.
func (c *Identity) Name() string { return fmt.Sprintf("none(%d)", c.k) }

// Kind implements Codec.
func (c *Identity) Kind() Kind { return KindNone }

// DataBits implements Codec.
func (c *Identity) DataBits() int { return c.k }

// CheckBits implements Codec.
func (c *Identity) CheckBits() int { return 0 }

// Encode implements Codec.
func (c *Identity) Encode(data uint64) uint64 { return data & DataMask(c) }

// Decode implements Codec. It never reports errors.
func (c *Identity) Decode(word uint64) (uint64, Result) {
	return word & DataMask(c), Result{Status: OK}
}
