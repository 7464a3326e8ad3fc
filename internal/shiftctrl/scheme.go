// Package shiftctrl implements the position-error-aware shift architecture
// (paper §5): the protection schemes compared in the evaluation, the
// safe-distance rule, the optimal shift-sequence selection of Algorithm 1,
// the adaptive run-time intensity adapter, and a functional fault-injecting
// tape controller for end-to-end protection of a single stripe.
//
// Every per-scheme decision lives here: a Scheme's methods say which p-ECC
// check it runs, what one operation costs and how its errors are
// classified, and Plans says how it splits a shift into operations.
// Callers ask them rather than compare schemes.
package shiftctrl

import (
	"fmt"

	"racetrack/hifi/internal/errmodel"
)

// Scheme is one of the protection configurations evaluated in the paper.
type Scheme int

const (
	// Baseline is the unprotected racetrack memory: no STS, no p-ECC.
	// Every position error is silent.
	Baseline Scheme = iota
	// STSOnly applies sub-threshold shift without any p-ECC: stop-in-middle
	// errors are eliminated, but out-of-step errors stay silent.
	STSOnly
	// SED is STS plus the single-step-error-detecting p-ECC (§4.2.1):
	// odd step errors are detected (DUE) but nothing is corrected.
	SED
	// SECDED is STS plus the single-correct/double-detect p-ECC (§4.2.2).
	SECDED
	// PECCO is STS plus SECDED p-ECC-O (§4.2.4): codes live in the
	// overhead region and every operation moves exactly one step.
	PECCO
	// PECCSWorst is SECDED p-ECC plus the safe-distance constraint
	// computed from the worst-case access intensity (§5.2).
	PECCSWorst
	// PECCSAdaptive is SECDED p-ECC plus the run-time adaptive safe
	// distance (§5.3).
	PECCSAdaptive
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case STSOnly:
		return "sts-only"
	case SED:
		return "sed-pecc"
	case SECDED:
		return "secded-pecc"
	case PECCO:
		return "secded-pecc-o"
	case PECCSWorst:
		return "secded-pecc-s-worst"
	case PECCSAdaptive:
		return "secded-pecc-s-adaptive"
	default:
		return "unknown-scheme"
	}
}

// ParseScheme maps a command-line scheme name to its Scheme. Most schemes
// take a short and a long alias: baseline|none, sts, sed, secded|pecc,
// pecco|pecc-o, worst|pecc-s-worst, adaptive|pecc-s-adaptive.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "baseline", "none":
		return Baseline, nil
	case "sts":
		return STSOnly, nil
	case "sed":
		return SED, nil
	case "secded", "pecc":
		return SECDED, nil
	case "pecco", "pecc-o":
		return PECCO, nil
	case "worst", "pecc-s-worst":
		return PECCSWorst, nil
	case "adaptive", "pecc-s-adaptive":
		return PECCSAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", name)
	}
}

// UsesSTS reports whether the scheme applies sub-threshold shift.
func (s Scheme) UsesSTS() bool { return s != Baseline }

// UsesSafeDistance reports whether the scheme constrains shift distance by
// the safe-distance rule.
func (s Scheme) UsesSafeDistance() bool {
	return s == PECCSWorst || s == PECCSAdaptive
}

// StepLimited reports whether every shift operation is limited to one step
// (p-ECC-O's shift-and-write).
func (s Scheme) StepLimited() bool { return s == PECCO }

// CheckMode selects how much of the p-ECC machinery a scheme engages
// after each shift operation.
type CheckMode int

const (
	// CheckCorrect runs full detect-and-correct (SECDED family). Default.
	CheckCorrect CheckMode = iota
	// CheckDetect detects errors but cannot correct (SED): every hit is a
	// DUE.
	CheckDetect
	// CheckNone performs no p-ECC check at all (baseline / STS-only):
	// position errors accumulate silently.
	CheckNone
)

// CheckMode returns the p-ECC check the scheme runs after every shift
// operation.
func (s Scheme) CheckMode() CheckMode {
	switch s {
	case Baseline, STSOnly:
		return CheckNone
	case SED:
		return CheckDetect
	default:
		return CheckCorrect
	}
}

// OpCycles returns the latency of one n-step shift operation under the
// scheme: the STS shift plus, when the scheme runs a p-ECC check, the
// check cycles.
func (s Scheme) OpCycles(t Timing, n int) int {
	if s.CheckMode() == CheckNone {
		return t.STS.Cycles(n)
	}
	return t.OpCycles(n)
}

// FailureRates returns the per-operation probabilities of silent data
// corruption and detected-unrecoverable error for a single shift operation
// of distance n under scheme s, given the device error model.
//
// Classification per the p-ECC semantics (§4.2):
//
//	baseline:  no detection at all — every position error is an SDC.
//	sts-only:  stop-in-middle gone; all out-of-step errors are SDCs.
//	SED:       odd-magnitude errors flip the parity-like code → detected
//	           (DUE, since direction is unknown); even-magnitude errors
//	           leave it unchanged → silent (SDC).
//	SECDED:    +-1 corrected (no failure); +-2 detected → DUE; +-3 aliases
//	           to -+1 in the period-4 cycle → miscorrected → SDC.
//	p-ECC-O / p-ECC-S: same SECDED classification (distance handling is
//	           done by the sequence planner, not here).
func (s Scheme) FailureRates(em errmodel.Model, n int) (sdc, due float64) {
	if n <= 0 {
		return 0, 0
	}
	switch s {
	case Baseline:
		raw := em
		raw.DisableSTS = true
		return raw.ErrorRate(n), 0
	case STSOnly:
		return em.K1Rate(n) + em.K2Rate(n) + em.K3PlusRate(n), 0
	case SED:
		return em.K2Rate(n), em.K1Rate(n) + em.K3PlusRate(n)
	default: // SECDED family
		return em.K3PlusRate(n), em.K2Rate(n)
	}
}

// OffsetClass is the fate of one concrete position error under a
// scheme, as classified by ClassifyOffset.
type OffsetClass int

const (
	// OffsetOK: no position error (or one the scheme fully corrects).
	OffsetOK OffsetClass = iota
	// OffsetSDC: the error is silent data corruption.
	OffsetSDC
	// OffsetDUE: the error is detected but unrecoverable.
	OffsetDUE
)

// ClassifyOffset classifies one concrete step offset k — a known,
// injected position error such as a stuck-domain fault — under scheme
// s, using the same p-ECC semantics as FailureRates. FailureRates
// integrates the error-model distribution; ClassifyOffset answers for
// a single deterministic outcome, which is what the fault-injection
// plane needs to account a forced error at probability 1.
func (s Scheme) ClassifyOffset(k int) OffsetClass {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return OffsetOK
	}
	switch s {
	case Baseline, STSOnly:
		return OffsetSDC
	case SED:
		if k%2 == 1 {
			return OffsetDUE
		}
		return OffsetSDC
	default: // SECDED family: +-1 corrected, +-2 DUE, >= 3 aliases silently
		switch k {
		case 1:
			return OffsetOK
		case 2:
			return OffsetDUE
		default:
			return OffsetSDC
		}
	}
}
