package main

import (
	"math"
	"strings"
	"testing"
)

// Every value the reliability model cannot take is refused with a
// message naming its flag; the defaults and the edges of the valid
// ranges pass.
func TestCheck(t *testing.T) {
	def := params{intensity: 83e6, stripes: 512, targetY: 10, distance: 7, segLen: 8}
	for _, tc := range []struct {
		name string
		set  func(*params)
		flag string // "" = valid
	}{
		{"defaults", func(*params) {}, ""},
		{"table defaults", func(p *params) { p.table = true }, ""},
		{"rate mode", func(p *params) { p.rate = 1e-19 }, ""},
		{"table distance 1", func(p *params) { p.table, p.distance = true, 1 }, ""},
		{"smallest segment", func(p *params) { p.segLen, p.table, p.distance = 2, true, 1 }, ""},
		{"distance unused without -table", func(p *params) { p.distance = 99 }, ""},
		{"negative rate", func(p *params) { p.rate = -1 }, "-rate"},
		{"NaN rate", func(p *params) { p.rate = math.NaN() }, "-rate"},
		{"zero intensity", func(p *params) { p.intensity = 0 }, "-intensity"},
		{"negative intensity", func(p *params) { p.intensity = -5 }, "-intensity"},
		{"infinite intensity", func(p *params) { p.intensity = math.Inf(1) }, "-intensity"},
		{"zero stripes", func(p *params) { p.stripes = 0 }, "-stripes"},
		{"negative stripes", func(p *params) { p.stripes = -3 }, "-stripes"},
		{"zero target", func(p *params) { p.targetY = 0 }, "-target-years"},
		{"zero segment", func(p *params) { p.segLen = 0 }, "-seglen"},
		{"one-step segment", func(p *params) { p.segLen = 1 }, "-seglen"},
		{"distance past the table", func(p *params) { p.table, p.distance = true, 99 }, "-distance"},
		{"distance at the segment length", func(p *params) { p.table, p.distance = true, 8 }, "-distance"},
		{"zero distance", func(p *params) { p.table, p.distance = true, 0 }, "-distance"},
		{"negative distance", func(p *params) { p.table, p.distance = true, -2 }, "-distance"},
	} {
		p := def
		tc.set(&p)
		err := p.check()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%s: check() = %v, want an error naming %s", tc.name, err, tc.flag)
		}
	}
}
