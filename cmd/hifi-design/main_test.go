package main

import (
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/design"
)

// Every requirement the search cannot take is refused with a message
// naming its flag; the paper's requirements and the zero bounds pass.
func TestCheck(t *testing.T) {
	def := design.DefaultRequirements()
	for _, tc := range []struct {
		name string
		set  func(*design.Requirements)
		flag string // "" = valid
	}{
		{"defaults", func(*design.Requirements) {}, ""},
		{"no floors or caps", func(r *design.Requirements) { r.MinDUEYears, r.MinSDCYears = 0, 0 }, ""},
		{"area and latency caps", func(r *design.Requirements) { r.MaxAreaPerBit, r.MaxLatency = 9.5, 10 }, ""},
		{"negative DUE floor", func(r *design.Requirements) { r.MinDUEYears = -1 }, "-due"},
		{"NaN SDC floor", func(r *design.Requirements) { r.MinSDCYears = math.NaN() }, "-sdc"},
		{"negative area cap", func(r *design.Requirements) { r.MaxAreaPerBit = -2 }, "-max-area"},
		{"infinite latency cap", func(r *design.Requirements) { r.MaxLatency = math.Inf(1) }, "-max-latency"},
		{"zero intensity", func(r *design.Requirements) { r.Intensity = 0 }, "-intensity"},
		{"negative intensity", func(r *design.Requirements) { r.Intensity = -5 }, "-intensity"},
		{"infinite intensity", func(r *design.Requirements) { r.Intensity = math.Inf(1) }, "-intensity"},
	} {
		r := def
		tc.set(&r)
		err := check(r)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%s: check() = %v, want an error naming %s", tc.name, err, tc.flag)
		}
	}
}
