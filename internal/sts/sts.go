// Package sts implements the sub-threshold shift technique (paper §4.1).
//
// A shift operation is performed in two stages:
//
//   - Stage 1: a pulse of full drive current density (2*J0) sized for the
//     ideal N-step travel time (~0.4 ns per step at the Table 1 point).
//   - Stage 2: a 1 ns pulse of sub-threshold current density (below J0).
//     Under sub-threshold drive, domain walls can move through flat regions
//     but cannot escape notch regions (physics.NotchTime is infinite), so
//     any wall left stranded mid-flat by stage 1 glides into the next notch
//     and stops there.
//
// The result is that stop-in-middle errors are (almost) eliminated,
// converted into out-of-step errors of the adjacent step — which p-ECC can
// then detect and correct. With a positive stage-2 current a wall stranded
// in the flat region between steps k and k+1 becomes a (k+1)-step outcome.
package sts

import (
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/physics"
)

// Config describes the two-stage shift operation.
type Config struct {
	// ClockHz is the controller clock; the paper uses 2 GHz.
	ClockHz float64
	// Stage1PerStep is the full-drive time per step (0.4 ns nominal).
	Stage1PerStep float64
	// Stage2Width is the sub-threshold pulse width (1 ns; the paper notes
	// 0.8 ns suffices and 1 ns adds margin for process variation).
	Stage2Width float64
	// Negative selects a negative stage-2 current: stranded walls glide
	// back into the previous notch instead of forward into the next one
	// (paper §4.1). The default is positive.
	Negative bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	p := physics.Default()
	return Config{
		ClockHz:       2e9,
		Stage1PerStep: p.StepTime(p.ShiftCurrentJ),
		Stage2Width:   1e-9,
	}
}

// Cycles returns the latency in controller cycles of an n-step shift with
// STS: ceil(stage1) + stage2 cycles. At the paper's point this is
// ceil(0.4*N / 0.5) + 2 = ceil(0.8*N) + 2: 3 cycles for a 1-step shift,
// 8 cycles for a 7-step shift.
func (c Config) Cycles(n int) int {
	if n <= 0 {
		return 0
	}
	period := 1 / c.ClockHz
	stage1 := float64(n) * c.Stage1PerStep
	s1 := int((stage1 + period - 1e-18) / period)
	if float64(s1)*period < stage1-1e-18 {
		s1++
	}
	s2 := int(c.Stage2Width / period)
	if float64(s2)*period < c.Stage2Width-1e-18 {
		s2++
	}
	return s1 + s2
}

// Seconds returns the wall-clock latency of an n-step shift.
func (c Config) Seconds(n int) float64 {
	return float64(c.Cycles(n)) / c.ClockHz
}

// Convert maps a raw (pre-STS) shift outcome to the post-STS outcome: a
// stop-in-middle between steps k and k+1 becomes a clean (k+1)-step outcome
// under positive stage-2 current, or k under negative current. Out-of-step
// outcomes pass through unchanged.
func (c Config) Convert(o errmodel.Outcome) errmodel.Outcome {
	if !o.StopInMiddle {
		return o
	}
	off := o.StepOffset
	if !c.Negative {
		off++
	}
	return errmodel.Outcome{StepOffset: off}
}

// StageCurrents returns the drive current densities of the two stages for
// the Table 1 device: full drive (2*J0) and a sub-threshold density (0.8*J0).
func StageCurrents() (stage1, stage2 float64) {
	p := physics.Default()
	return p.ShiftCurrentJ, 0.8 * p.ThresholdJ0
}
