// Package faults is the deterministic, seeded fault-injection subsystem.
//
// The paper's evaluation replays one *calibrated* error regime — the
// Table 2 rates at the Table 1 operating point. Real devices leave that
// regime: drive variation produces correlated bursts of over-shifts,
// manufacturing defects pin domain walls at individual notches,
// temperature excursions widen the timing-margin tail, and slow
// mechanical or thermal drift degrades alignment over a device's life.
// This package models those off-nominal regimes as composable,
// deterministic injectors layered over the analytic error model
// (errmodel.Model) that memsim integrates per shift operation, so a
// campaign can ask "how far past Table 2 does each protection scheme
// hold?" and get a reproducible degradation curve.
//
// Two rules keep injection compatible with the experiment engine's
// caching contract (docs/engine.md):
//
//   - A Plan is plain data: its canonical JSON participates in the
//     memsim fingerprint, so cached results are keyed by the fault
//     regime they were computed under.
//   - A nil (or empty) Plan is the nominal device and costs nothing: the
//     fingerprint bytes, the simulated tables, and the fidelity
//     scorecard are identical to a build without this package.
//
// See docs/faults.md for the schema, the injector catalog, and a
// campaign walkthrough.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Injector kinds. Each kind reads a different subset of the Injector
// parameters; Validate rejects mixes that make no sense.
const (
	// KindBurst is a deterministic periodic burst: every Period shift
	// operations, a window of Len operations runs with error rates
	// multiplied by Boost and outcomes biased toward over-shift
	// (correlated burst over-shifts; cf. the two-deletion bursts of
	// Vahid et al.).
	KindBurst = "burst"
	// KindMarkov is a two-state (calm/burst) Markov chain: each
	// operation enters the burst state with probability PEnter and
	// leaves it with probability PExit; while bursting, rates are
	// multiplied by Boost. Dwell times are geometric, so bursts are
	// correlated but aperiodic.
	KindMarkov = "markov"
	// KindStuck is a stuck-domain/notch defect: every Period shift
	// operations, one operation's outcome is forced to Offset steps
	// (default -1: the wall stays pinned in its notch, an under-shift).
	KindStuck = "stuck"
	// KindTemp is a cyclic temperature excursion: the operating
	// temperature ramps from the 25C reference to PeakC over RampOps
	// operations, holds for HoldOps, ramps back down, then idles at the
	// reference for Period operations before repeating. The error model
	// converts temperature into a rate multiplier via its
	// Gaussian-margin tempFactor.
	KindTemp = "temp"
	// KindDrift is slow misalignment drift: the rate multiplier grows
	// by PerOp per operation (compounded), capped at Cap — the aging
	// device whose margins erode over the run.
	KindDrift = "drift"
)

// Injector is one fault process. Kind selects the state machine; the
// remaining fields parameterize it (unused fields must stay zero so the
// canonical JSON is stable). Intensity scales the injector's strength:
// 1 (or 0, the zero value) is the configured strength, 0 after an
// explicit Scale(0) disables it, and values above 1 push the device
// further off-nominal. Campaigns sweep Intensity to trace degradation
// curves.
type Injector struct {
	Kind string `json:"kind"`
	// Intensity scales the injector strength; 0 means 1 (nominal
	// configured strength) so the zero value is usable.
	Intensity float64 `json:"intensity,omitempty"`
	// Disabled turns the injector off while keeping it in the plan (and
	// in the cache fingerprint) — the control point of a Scale sweep.
	Disabled bool `json:"disabled,omitempty"`

	// Boost multiplies error rates while a burst/markov injector is in
	// its burst state. Must be >= 1.
	Boost float64 `json:"boost,omitempty"`
	// Len is the burst window length in operations (KindBurst).
	Len int `json:"len,omitempty"`
	// PEnter and PExit are the Markov transition probabilities
	// (KindMarkov).
	PEnter float64 `json:"p_enter,omitempty"`
	PExit  float64 `json:"p_exit,omitempty"`

	// Period is the recurrence interval in shift operations (KindBurst,
	// KindStuck, and the idle phase of KindTemp).
	Period int `json:"period,omitempty"`
	// Offset is the forced step offset of a stuck fault (KindStuck);
	// 0 means -1 (wall pinned in its notch).
	Offset int `json:"offset,omitempty"`

	// PeakC is the excursion peak temperature in Celsius (KindTemp).
	PeakC float64 `json:"peak_c,omitempty"`
	// RampOps and HoldOps shape the excursion (KindTemp).
	RampOps int `json:"ramp_ops,omitempty"`
	HoldOps int `json:"hold_ops,omitempty"`

	// PerOp is the per-operation multiplicative rate growth of
	// KindDrift (e.g. 1e-5 compounds to ~1.65x over 50k operations).
	PerOp float64 `json:"per_op,omitempty"`
	// Cap bounds the drift multiplier; 0 means 100.
	Cap float64 `json:"cap,omitempty"`
}

// intensity returns the effective strength scale.
func (in Injector) intensity() float64 {
	if in.Disabled {
		return 0
	}
	if in.Intensity == 0 {
		return 1
	}
	return in.Intensity
}

// Validate checks one injector's parameters. An intensity must be
// finite as well as non-negative: a plan's canonical JSON, its cache
// key, has no encoding for NaN or infinity.
func (in Injector) Validate() error {
	if in.Intensity < 0 {
		return fmt.Errorf("faults: %s: negative intensity %g", in.Kind, in.Intensity)
	}
	if math.IsNaN(in.Intensity) || math.IsInf(in.Intensity, 0) {
		return fmt.Errorf("faults: %s: intensity %g is not finite", in.Kind, in.Intensity)
	}
	switch in.Kind {
	case KindBurst:
		if in.Boost < 1 {
			return fmt.Errorf("faults: burst: boost %g < 1", in.Boost)
		}
		if in.Period <= 0 || in.Len <= 0 || in.Len > in.Period {
			return fmt.Errorf("faults: burst: need 0 < len <= period, got len=%d period=%d", in.Len, in.Period)
		}
	case KindMarkov:
		if in.Boost < 1 {
			return fmt.Errorf("faults: markov: boost %g < 1", in.Boost)
		}
		if in.PEnter <= 0 || in.PEnter > 1 || in.PExit <= 0 || in.PExit > 1 {
			return fmt.Errorf("faults: markov: transition probabilities must be in (0,1], got p_enter=%g p_exit=%g", in.PEnter, in.PExit)
		}
	case KindStuck:
		if in.Period <= 0 {
			return fmt.Errorf("faults: stuck: need period > 0, got %d", in.Period)
		}
	case KindTemp:
		if in.PeakC <= referenceTempC {
			return fmt.Errorf("faults: temp: peak %gC not above the %gC reference", in.PeakC, float64(referenceTempC))
		}
		if in.RampOps <= 0 {
			return fmt.Errorf("faults: temp: need ramp_ops > 0, got %d", in.RampOps)
		}
	case KindDrift:
		if in.PerOp <= 0 {
			return fmt.Errorf("faults: drift: need per_op > 0, got %g", in.PerOp)
		}
		if in.Cap < 0 {
			return fmt.Errorf("faults: drift: negative cap %g", in.Cap)
		}
	default:
		return fmt.Errorf("faults: unknown injector kind %q", in.Kind)
	}
	return nil
}

// Plan is a complete, serializable fault-injection configuration: a
// seed for the injector randomness and the injector list. The zero
// value (and nil) is the nominal, uninjected device.
type Plan struct {
	// Seed drives the injectors' private random stream; 0 means 1. The
	// stream is independent of the workload's trace randomness, so the
	// same plan perturbs different workloads comparably.
	Seed      uint64     `json:"seed,omitempty"`
	Injectors []Injector `json:"injectors"`
}

// Norm maps the empty plan to nil, the canonical "injection off"
// representation: fingerprints, caches, and the simulator all treat a
// normalized nil plan as the nominal device at zero cost.
func (p *Plan) Norm() *Plan {
	if p == nil || len(p.Injectors) == 0 {
		return nil
	}
	return p
}

// Validate checks every injector.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, in := range p.Injectors {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("injector %d: %w", i, err)
		}
	}
	return nil
}

// Scale returns a copy of the plan with every injector's Intensity
// multiplied by x (an unset Intensity counts as 1). Campaigns use it to
// sweep one plan across a degradation axis; Scale(0) marks every
// injector Disabled — the campaign's control point, inert but still a
// distinct cache key.
func (p *Plan) Scale(x float64) *Plan {
	if p == nil {
		return nil
	}
	out := &Plan{Seed: p.Seed, Injectors: make([]Injector, len(p.Injectors))}
	for i, in := range p.Injectors {
		if x == 0 {
			in.Disabled = true
		} else {
			in.Intensity = in.intensity() * x
		}
		out.Injectors[i] = in
	}
	return out
}

// Canonical renders the plan as its canonical JSON (compact, fields in
// declaration order), the form mixed into the memsim fingerprint. Nil
// and empty plans have no canonical form and return "".
func (p *Plan) Canonical() string {
	p = p.Norm()
	if p == nil {
		return ""
	}
	b, err := json.Marshal(p)
	if err != nil {
		// A Plan is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("faults: Canonical: %v", err))
	}
	return string(b)
}

// Parse decodes a JSON plan and validates it. Unknown fields are
// rejected so a typo in a campaign config fails loudly instead of
// silently running the nominal device.
func Parse(b []byte) (*Plan, error) {
	var p Plan
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	return p.Norm(), nil
}
