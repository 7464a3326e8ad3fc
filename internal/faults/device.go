package faults

import (
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/sim"
	"racetrack/hifi/internal/telemetry/events"
)

// referenceTempC mirrors the error model's characterization temperature.
const referenceTempC = 25

// Mod is the modulation one shift operation experiences: a multiplier
// on every error rate, an optional temperature override, an optional
// forced outcome, and an over-shift bias flag. The identity Mod
// (RateFactor 1, everything else zero) is the nominal device.
type Mod struct {
	// RateFactor multiplies the error model's rates (>= 0; 1 nominal).
	RateFactor float64
	// TempC overrides the operating temperature; 0 keeps the model's.
	TempC float64
	// ForceOffset forces the sampled outcome to this step offset
	// (stuck-domain fault); 0 means no forcing.
	ForceOffset int
	// OverBias forces sampled out-of-step errors onto the over-shift
	// side (correlated burst over-shifts all push the same way).
	OverBias bool
}

// Identity reports whether the modulation leaves the device nominal.
func (m Mod) Identity() bool {
	return m.RateFactor == 1 && m.TempC == 0 && m.ForceOffset == 0 && !m.OverBias
}

// Apply returns the error model with the modulation folded in: the rate
// factor multiplies RateScale and a nonzero TempC replaces the model's
// temperature. A forced offset is not a rate: the caller accounts it
// (memsim classifies it with shiftctrl's Scheme.ClassifyOffset). The
// over-shift bias moves no rate either, so it is not applied here.
func (m Mod) Apply(em errmodel.Model) errmodel.Model {
	if m.RateFactor != 1 {
		rs := em.RateScale
		if rs == 0 {
			rs = 1
		}
		em.RateScale = rs * m.RateFactor
	}
	if m.TempC != 0 {
		em.TempC = m.TempC
	}
	return em
}

// Device is the live state of one plan's injectors over one simulated
// device: a deterministic state machine advanced once per shift
// operation. A nil *Device is the nominal device — every method is
// nil-safe and free — so callers thread it unconditionally.
//
// A Device is not safe for concurrent use; each simulated run owns its
// own (the experiment engine gives every job a private config, so this
// falls out naturally).
type Device struct {
	rng  *sim.RNG
	ops  uint64
	injs []injectorState

	// Event-plane wiring (SetEvents): a fault window "opens" when the
	// composed modulation leaves identity and "closes" when it returns.
	bus       *events.Bus
	scope     string
	winActive bool
}

// injectorState is one injector's runtime state.
type injectorState struct {
	cfg Injector
	// markov
	bursting bool
	// drift
	factor float64
}

// New builds the device-plane state for a plan. A nil or empty plan
// returns (nil, nil): injection off, zero cost. An invalid plan errors.
func New(p *Plan) (*Device, error) {
	p = p.Norm()
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	d := &Device{rng: sim.NewRNG(seed), injs: make([]injectorState, len(p.Injectors))}
	for i, in := range p.Injectors {
		d.injs[i] = injectorState{cfg: in, factor: 1}
	}
	return d, nil
}

// SetEvents routes fault-window transitions to bus as fault.open /
// fault.close events; scope names the run the device belongs to
// ("memsim:ferret") since one sweep simulates many devices. Nil-safe on
// both sides, and free per-op when no bus is attached.
func (d *Device) SetEvents(bus *events.Bus, scope string) {
	if d == nil {
		return
	}
	d.bus = bus
	d.scope = scope
}

// Ops returns how many operations have been advanced.
func (d *Device) Ops() uint64 {
	if d == nil {
		return 0
	}
	return d.ops
}

// Advance steps every injector by one shift operation and returns the
// combined modulation for that operation. Rate factors compose
// multiplicatively; the hottest temperature wins; the first active
// forced offset wins. Nil-safe: a nil device returns the identity.
func (d *Device) Advance() Mod {
	m := Mod{RateFactor: 1}
	if d == nil {
		return m
	}
	op := d.ops
	d.ops++
	for i := range d.injs {
		st := &d.injs[i]
		in := st.cfg
		I := in.intensity()
		if I == 0 {
			continue
		}
		switch in.Kind {
		case KindBurst:
			if op%uint64(in.Period) < uint64(in.Len) {
				m.RateFactor *= 1 + (in.Boost-1)*I
				m.OverBias = true
			}
		case KindMarkov:
			if st.bursting {
				if d.rng.Float64() < in.PExit {
					st.bursting = false
				}
			} else if d.rng.Float64() < in.PEnter {
				st.bursting = true
			}
			if st.bursting {
				m.RateFactor *= 1 + (in.Boost-1)*I
			}
		case KindStuck:
			// Intensity scales the firing frequency: the effective period
			// shrinks as I grows (an I of 2 pins twice as often).
			period := uint64(float64(in.Period) / I)
			if period == 0 {
				period = 1
			}
			if op%period == period-1 && m.ForceOffset == 0 {
				off := in.Offset
				if off == 0 {
					off = -1
				}
				m.ForceOffset = off
			}
		case KindTemp:
			if t := tempAt(in, op, I); t > m.TempC {
				m.TempC = t
			}
		case KindDrift:
			lim := in.Cap
			if lim == 0 {
				lim = 100
			}
			if st.factor < lim {
				st.factor *= 1 + in.PerOp*I
				if st.factor > lim {
					st.factor = lim
				}
			}
			m.RateFactor *= st.factor
		}
	}
	if d.bus != nil {
		if active := !m.Identity(); active != d.winActive {
			d.winActive = active
			if active {
				d.bus.Emit(events.Event{
					Type: events.FaultOpen, Name: d.scope, N: int64(op), V: m.RateFactor,
				})
			} else {
				d.bus.Emit(events.Event{
					Type: events.FaultClose, Name: d.scope, N: int64(op),
				})
			}
		}
	}
	return m
}

// tempAt evaluates the cyclic temperature excursion at operation op:
// ramp up over RampOps, hold HoldOps, ramp down over RampOps, idle for
// Period. Returns 0 (nominal) while idling at the reference.
func tempAt(in Injector, op uint64, intensity float64) float64 {
	ramp := uint64(in.RampOps)
	hold := uint64(in.HoldOps)
	idle := uint64(in.Period)
	cycle := 2*ramp + hold + idle
	pos := op % cycle
	var frac float64
	switch {
	case pos < ramp: // ramping up
		frac = float64(pos+1) / float64(ramp)
	case pos < ramp+hold: // holding at peak
		frac = 1
	case pos < 2*ramp+hold: // ramping down
		frac = float64(2*ramp+hold-pos) / float64(ramp)
	default: // idle at reference
		return 0
	}
	delta := (in.PeakC - referenceTempC) * frac * intensity
	if delta <= 0 {
		return 0
	}
	return referenceTempC + delta
}
