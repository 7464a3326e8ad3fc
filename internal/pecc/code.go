// Package pecc implements position error correction codes (p-ECC), the
// paper's primary contribution (§4.2).
//
// A p-ECC is a cyclic bit pattern stored in dedicated domains of a racetrack
// stripe and read through extra read ports. Because the pattern shifts
// together with the data domains, the code bits visible under the fixed
// ports reveal the tape's true displacement modulo the pattern period; the
// difference between that and the controller's believed displacement is
// exactly the accumulated out-of-step position error.
//
// A code with correction strength m uses the square-wave pattern of period
// P = 2(m+1) (m=1 gives the paper's Fig. 6(e) cycle 11→10→00→01) read
// through a window of W = m+1 ports. Every one of the P cyclic phases
// produces a distinct window, so the decoder can:
//
//   - correct any out-of-step error with |e| <= m (unique phase distance), and
//   - detect |e| = m+1 (phase distance m+1 is shared by +(m+1) and -(m+1),
//     so the direction — and therefore the correction — is unknown).
//
// m = 0 degenerates to the paper's SED code '10101...': a single port
// detecting odd step errors without direction, the position analogue of a
// parity bit. m = 1 is the SECDED configuration used throughout the
// evaluation.
package pecc

import (
	"fmt"

	"racetrack/hifi/internal/stripe"
)

// Code is a p-ECC of a given correction strength for a given segment
// length. The zero value is invalid; use New.
type Code struct {
	m      int // correctable step magnitude
	segLen int // Lseg of the protected stripe
}

// New returns a p-ECC correcting up to m-step errors (and detecting
// (m+1)-step errors) for a stripe with segment length segLen.
// m must satisfy 0 <= m < segLen-1 (paper §4.2.3).
func New(m, segLen int) (Code, error) {
	if segLen < 2 {
		return Code{}, fmt.Errorf("pecc: segment length %d too short", segLen)
	}
	if m < 0 || m >= segLen-1 {
		return Code{}, fmt.Errorf("pecc: strength m=%d outside [0, %d)", m, segLen-1)
	}
	return Code{m: m, segLen: segLen}, nil
}

// MustNew is New but panics on error; for tests and package-level defaults.
func MustNew(m, segLen int) Code {
	c, err := New(m, segLen)
	if err != nil {
		panic(err)
	}
	return c
}

// SED returns the single-step-error-detection code (§4.2.1).
func SED(segLen int) Code { return MustNew(0, segLen) }

// SECDED returns the single-step-correct / double-step-detect code
// (§4.2.2), the paper's default protection.
func SECDED(segLen int) Code { return MustNew(1, segLen) }

// M returns the correctable error magnitude.
func (c Code) M() int { return c.m }

// SegLen returns the protected segment length.
func (c Code) SegLen() int { return c.segLen }

// Window returns the number of code bits read per check: m+1 read ports.
func (c Code) Window() int { return c.m + 1 }

// Period returns the cyclic period of the code pattern: 2(m+1).
func (c Code) Period() int { return 2 * (c.m + 1) }

// Length returns the number of code domains required so that the read
// window stays over valid code bits for every reachable displacement:
// legal offsets 0..Lseg-1 plus errors up to +-(m+1), plus the window
// itself: Lseg + 3m + 2. (The paper's Fig. 6 example: Lseg=4, m=1 → 9.)
func (c Code) Length() int { return c.segLen + 3*c.m + 2 }

// AreaLength returns the code length used by the paper's §4.2.3 overhead
// accounting, Lseg - 1 + 2m, which its area results (Table 5, Fig 13)
// follow. See EXPERIMENTS.md for the discrepancy note.
func (c Code) AreaLength() int { return c.segLen - 1 + 2*c.m }

// GuardDomains returns the extra guard domains required at the data ends to
// prevent data loss under correctable errors: 2m total (m per end).
func (c Code) GuardDomains() int { return 2 * c.m }

// Bit returns code bit i of the square-wave pattern: 1 for the first m+1
// phases of each period. Indices may exceed Length for cyclic reasoning.
func (c Code) Bit(i int) stripe.Bit {
	p := i % c.Period()
	if p < 0 {
		p += c.Period()
	}
	return stripe.FromBool(p < c.m+1)
}

// Pattern returns the full code pattern of Length() bits, in stripe order.
func (c Code) Pattern() []stripe.Bit {
	out := make([]stripe.Bit, c.Length())
	for i := range out {
		out[i] = c.Bit(i)
	}
	return out
}

// ExpectedWindow returns the window of code bits the ports should read when
// the tape's net displacement is offset steps (leftward positive, matching
// stripe.Layout's alignment convention). The window reads code bits
// offset+base .. offset+base+W-1 where the base port alignment is chosen by
// the layout; the decoder only ever uses phase differences, so base 0 is
// used here.
func (c Code) ExpectedWindow(offset int) []stripe.Bit {
	out := make([]stripe.Bit, c.Window())
	for i := range out {
		out[i] = c.Bit(offset + i)
	}
	return out
}

// phaseOf returns the cyclic phase (0..P-1) whose window matches read, or
// -1 if read contains an Unknown bit or matches no phase (impossible for
// well-formed square-wave windows).
func (c Code) phaseOf(read []stripe.Bit) int {
	if len(read) != c.Window() {
		panic(fmt.Sprintf("pecc: window size %d, want %d", len(read), c.Window()))
	}
	for _, b := range read {
		if b != stripe.Zero && b != stripe.One {
			return -1
		}
	}
	for p := 0; p < c.Period(); p++ {
		match := true
		for i := range read {
			if c.Bit(p+i) != read[i] {
				match = false
				break
			}
		}
		if match {
			return p
		}
	}
	return -1
}

// Result is the decoder's verdict for one check.
type Result struct {
	// Offset is the detected out-of-step error in steps (positive meaning
	// the tape moved further than believed, in the direction of the last
	// shift's positive sense). Valid only when Correctable.
	Offset int
	// Detected reports any mismatch between expected and observed code.
	Detected bool
	// Correctable reports the error magnitude is <= m, so Offset is exact.
	Correctable bool
	// Indeterminate reports the window could not be decoded at all
	// (Unknown bits from a stop-in-middle, or corrupted code domains).
	Indeterminate bool
}

// Decode compares the code window read from the ports against the window
// expected at the believed displacement and classifies the position error.
func (c Code) Decode(believedOffset int, read []stripe.Bit) Result {
	actual := c.phaseOf(read)
	if actual < 0 {
		return Result{Detected: true, Indeterminate: true}
	}
	expected := believedOffset % c.Period()
	if expected < 0 {
		expected += c.Period()
	}
	delta := (actual - expected) % c.Period()
	if delta < 0 {
		delta += c.Period()
	}
	switch {
	case delta == 0:
		return Result{}
	case delta <= c.m:
		return Result{Offset: delta, Detected: true, Correctable: true}
	case delta >= c.Period()-c.m:
		return Result{Offset: delta - c.Period(), Detected: true, Correctable: true}
	default:
		// delta == m+1: +-(m+1) are indistinguishable — detect only.
		return Result{Detected: true}
	}
}
