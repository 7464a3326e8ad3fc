package shiftctrl

import (
	"fmt"

	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/sim"
	"racetrack/hifi/internal/stripe"
)

// LayoutFor builds a stripe layout sized for a SECDED-family p-ECC: the
// left guard absorbs the full access excursion (Lseg-1 steps) plus the
// worst correctable-or-detectable error (m+1); the right guard absorbs
// negative excursions; the p-ECC region holds the code plus m+1 slack slots
// so negative excursions never destroy code bits.
func LayoutFor(c pecc.Code, dataLen int) stripe.Layout {
	m := c.M()
	return stripe.Layout{
		DataLen:    dataLen,
		SegLen:     c.SegLen(),
		GuardLeft:  c.SegLen() - 1 + m + 1,
		GuardRight: m + 1,
		PECCLen:    c.Length() + m + 1,
		PECCPorts:  c.Window(),
	}
}

// Tape is a functional, fault-injected model of one protected racetrack
// stripe: it executes real shift operations on the underlying stripe, with
// position errors drawn from the device error model, and runs the p-ECC
// detect/correct loop after every operation. It is the end-to-end
// realization of the paper's shift architecture for a single stripe, used
// by the examples and the integration tests; the cache-scale evaluation
// uses the analytic rate tracking instead (rates below 1e-15 are not
// observable functionally).
type Tape struct {
	st     *stripe.Stripe
	lay    stripe.Layout
	code   pecc.Code
	em     errmodel.Model
	timing Timing
	rng    *sim.RNG

	// Mode selects the protection level; zero value is full correction.
	Mode CheckMode

	believed int // offset the controller believes (0..SegLen-1 nominally)
	trueOff  int // actual tape offset (oracle; hardware cannot see this)

	// Statistics.
	Ops         uint64 // shift operations issued (including corrections)
	Cycles      uint64 // total latency spent shifting and checking
	Corrections uint64 // corrective shifts applied after p-ECC hits
	DUEs        uint64 // detected unrecoverable errors
	SilentBad   uint64 // oracle count of undetected misalignment episodes
}

// maxCorrectionRounds bounds the detect-correct loop; two consecutive
// correctable hits are already vanishingly rare.
const maxCorrectionRounds = 4

// NewTape builds a protected tape with an initialized p-ECC region and
// zeroed data domains.
func NewTape(code pecc.Code, dataLen int, em errmodel.Model, timing Timing, rng *sim.RNG) *Tape {
	lay := LayoutFor(code, dataLen)
	if err := lay.Validate(); err != nil {
		panic(err)
	}
	st := stripe.New(lay.TotalSlots())
	snap := st.Snapshot()
	for i := 0; i < dataLen; i++ {
		snap[lay.DataSlot(i)] = stripe.Zero
	}
	for i := 0; i < code.Length(); i++ {
		snap[lay.PECCSlot(i)] = code.Bit(i)
	}
	st.LoadSlots(snap)
	return &Tape{st: st, lay: lay, code: code, em: em, timing: timing, rng: rng}
}

// Layout returns the tape's layout.
func (t *Tape) Layout() stripe.Layout { return t.lay }

// BelievedOffset returns the controller's current position belief.
func (t *Tape) BelievedOffset() int { return t.believed }

// TrueOffset returns the oracle tape position (tests only).
func (t *Tape) TrueOffset() int { return t.trueOff }

// Aligned reports whether belief matches reality (oracle).
func (t *Tape) Aligned() bool { return t.believed == t.trueOff && !t.st.Misaligned() }

// shiftOnce performs one shift operation of dist steps toward the target
// direction (dir=+1 moves the tape left / increases offset), injecting a
// sampled position error, then runs the p-ECC check-and-correct loop.
func (t *Tape) shiftOnce(dist, dir int) {
	t.applyRaw(dist, dir)
	t.believed += dir * dist
	t.checkAndCorrect()
}

// applyRaw moves the tape by dist steps in direction dir with a sampled
// position error, updating physical state and the true offset, without any
// checking.
func (t *Tape) applyRaw(dist, dir int) {
	o := t.em.Sample(dist, t.rng)
	actual := dist + o.StepOffset
	if actual < 0 {
		actual = 0
	}
	t.Ops++
	t.Cycles += uint64(t.timing.OpCycles(dist))
	if dir > 0 {
		t.st.ShiftLeft(actual, nil)
		t.trueOff += actual
	} else {
		t.st.ShiftRight(actual, nil)
		t.trueOff -= actual
	}
	t.st.SetMisaligned(o.StopInMiddle)
}

// checkAndCorrect reads the p-ECC window and applies corrective shifts
// until the code matches or the error is declared unrecoverable. The
// tape's Mode limits how far the machinery goes.
func (t *Tape) checkAndCorrect() {
	if t.Mode == CheckNone {
		// Unprotected: stop-in-middle clears only by luck on a later
		// shift; out-of-step drift persists silently.
		if t.believed != t.trueOff || t.st.Misaligned() {
			t.SilentBad++
		}
		return
	}
	for round := 0; round < maxCorrectionRounds; round++ {
		res := t.decode()
		switch {
		case !res.Detected:
			if t.believed != t.trueOff {
				// Oracle: an aliased multi-step error slipped through.
				t.SilentBad++
			}
			return
		case res.Correctable && t.Mode == CheckDetect:
			// SED knows something is wrong but not which direction.
			t.DUEs++
			t.recoverDUE()
			return
		case res.Correctable:
			t.Corrections++
			// Shift back by the detected offset. The correction is itself
			// a shift operation with its own error injection.
			d := res.Offset
			if d > 0 {
				t.applyRaw(d, -1)
			} else {
				t.applyRaw(-d, +1)
			}
		default:
			// Indeterminate or +-(m+1): detected but unrecoverable.
			t.DUEs++
			t.recoverDUE()
			return
		}
	}
	t.DUEs++
	t.recoverDUE()
}

// recoverDUE models the architectural response to an unrecoverable
// position error: the line is invalidated and the stripe re-initialized
// (§4.3). The tape is physically realigned to the believed offset (a
// maintenance operation outside normal shifting) and the p-ECC pattern is
// restored; data content after a DUE is the caller's responsibility, as in
// a real system where the cache refetches the line.
func (t *Tape) recoverDUE() {
	t.st.SetMisaligned(false)
	// Physically realign: undo the net drift without error injection.
	if delta := t.trueOff - t.believed; delta > 0 {
		t.st.ShiftRight(delta, nil)
	} else if delta < 0 {
		t.st.ShiftLeft(-delta, nil)
	}
	t.trueOff = t.believed
	// Re-program the code pattern at the current offset.
	snap := t.st.Snapshot()
	for i := 0; i < t.code.Length(); i++ {
		slot := t.lay.PECCSlot(i) - t.believed
		if slot >= 0 && slot < len(snap) {
			snap[slot] = t.code.Bit(i)
		}
	}
	t.st.LoadSlots(snap)
}

// decode reads the code window under the fixed p-ECC ports and compares it
// with the window expected at the believed offset. Ports are fixed in
// space; the tape moved left by trueOff, so the port over code home
// position base+j now sees code bit base+j+trueOff.
func (t *Tape) decode() pecc.Result {
	w := make([]stripe.Bit, t.code.Window())
	base := t.code.M() + 1 // port window base within the code region
	for j := range w {
		portSlot := t.lay.PECCSlot(base + j)
		if t.st.Misaligned() {
			w[j] = stripe.Unknown
			continue
		}
		w[j] = t.st.Read(portSlot)
	}
	return t.code.Decode(base+t.believed, w)
}

// AlignTo shifts the tape so that in-segment offset target is under the
// data ports, using the given shift sequence planner output. seqFor decides
// how a distance is split into operations (nil means one operation per
// request, the unconstrained SECDED behaviour).
func (t *Tape) AlignTo(target int, seqFor func(dist int) []int) error {
	if target < 0 || target >= t.lay.SegLen {
		return fmt.Errorf("shiftctrl: target offset %d outside segment [0,%d)", target, t.lay.SegLen)
	}
	dist := target - t.believed
	dir := +1
	if dist < 0 {
		dist, dir = -dist, -1
	}
	var seq []int
	if seqFor != nil {
		seq = seqFor(dist)
	} else if dist > 0 {
		seq = []int{dist}
	}
	for _, n := range seq {
		t.shiftOnce(n, dir)
	}
	return nil
}

// ReadData returns the value of data domain i, which must currently be
// aligned under its segment port (i.e. OffsetOf(i) == believed offset).
func (t *Tape) ReadData(i int) (stripe.Bit, error) {
	if t.lay.OffsetOf(i) != t.believed {
		return stripe.Unknown, fmt.Errorf("shiftctrl: domain %d not aligned (offset %d, believed %d)",
			i, t.lay.OffsetOf(i), t.believed)
	}
	slot := t.lay.PortSlot(t.lay.SegmentOf(i))
	return t.st.Read(slot), nil
}

// WriteData stores v into data domain i, which must be aligned under its
// segment port.
func (t *Tape) WriteData(i int, v stripe.Bit) error {
	if t.lay.OffsetOf(i) != t.believed {
		return fmt.Errorf("shiftctrl: domain %d not aligned for write", i)
	}
	if t.st.Misaligned() {
		return fmt.Errorf("shiftctrl: stripe misaligned")
	}
	t.st.Write(t.lay.PortSlot(t.lay.SegmentOf(i)), v)
	return nil
}

// InjectDrift physically drifts the tape by e steps without the
// controller's knowledge: a deterministic out-of-step fault for tests and
// injection campaigns. Positive e drifts in the positive (leftward)
// direction.
func (t *Tape) InjectDrift(e int) {
	if e > 0 {
		t.st.ShiftLeft(e, nil)
	} else if e < 0 {
		t.st.ShiftRight(-e, nil)
	}
	t.trueOff += e
}

// CheckNow runs the p-ECC check-and-correct loop immediately, as the next
// shift operation would.
func (t *Tape) CheckNow() { t.checkAndCorrect() }

// PeekData returns the oracle value of data domain i regardless of
// alignment (tests only).
func (t *Tape) PeekData(i int) stripe.Bit {
	slot := t.lay.DataSlot(i) - t.trueOff
	if slot < 0 || slot >= t.st.Len() {
		return stripe.Unknown
	}
	return t.st.Peek(slot)
}
