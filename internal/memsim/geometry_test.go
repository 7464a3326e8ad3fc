package memsim

import (
	"context"
	"strings"
	"testing"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
)

// Geometry-variant runs: the simulator must support the Fig 12/13/15
// stripe configurations end to end, not just analytically.

func geomConfig(segLen int) Config {
	cfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	cfg.Geometry = cache.RTMGeometry{
		StripesPerGroup: 512,
		DataBits:        64,
		SegLen:          segLen,
		LineBytes:       64,
	}
	return cfg
}

func TestGeometrySegLen4(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	r, err := Run(w, geomConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.ShiftOps == 0 {
		t.Fatal("no shifts with SegLen 4")
	}
	// Max distance is 3 with 16 ports.
	if r.AvgShiftDistance >= 3 {
		t.Errorf("avg distance %v should be < 3 with SegLen 4", r.AvgShiftDistance)
	}
}

func TestGeometrySegLen16(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	r, err := Run(w, geomConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if r.ShiftOps == 0 {
		t.Fatal("no shifts with SegLen 16")
	}
	if r.AvgShiftDistance >= 15 {
		t.Errorf("avg distance %v out of range", r.AvgShiftDistance)
	}
}

func TestGeometryShorterSegmentsShiftLess(t *testing.T) {
	// More ports (shorter segments) reduce total movement: the
	// fundamental area/latency trade of §2.1.
	w := smallWorkload("ferret", 128<<10)
	r4, err := Run(w, geomConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Run(w, geomConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	if r4.ShiftSteps >= r16.ShiftSteps {
		t.Errorf("SegLen 4 steps (%d) should be below SegLen 16 (%d)",
			r4.ShiftSteps, r16.ShiftSteps)
	}
	// And lower reliability exposure per the shorter distances.
	if r4.Tracker.ExpectedDUE() >= r16.Tracker.ExpectedDUE() {
		t.Errorf("SegLen 4 DUE exposure (%g) should be below SegLen 16 (%g)",
			r4.Tracker.ExpectedDUE(), r16.Tracker.ExpectedDUE())
	}
}

func TestGeometrySegLen2Baseline(t *testing.T) {
	// SegLen 2 can't host SECDED in-region p-ECC but the baseline and
	// p-ECC-O schemes still run.
	w := smallWorkload("vips", 64<<10)
	cfg := geomConfig(2)
	cfg.Scheme = shiftctrl.PECCO
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgShiftDistance > 1 {
		t.Errorf("SegLen 2 distances must be 0 or 1, avg %v", r.AvgShiftDistance)
	}
}

// A hierarchy the cache model cannot build is a configuration error:
// RunCtx reports it before building anything, where cache.New and
// cache.NewRTMArray would panic.
func TestRunCtxRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"L3 capacity not a whole number of sets", func(c *Config) { c.L3Capacity = 1<<20 + 64 }, "L3: cache: capacity"},
		{"SegLen not dividing DataBits", func(c *Config) { c.Geometry.SegLen = 7 }, "SegLen 7"},
		{"more ways than a recency order holds", func(c *Config) { c.L3Ways = 32 }, "L3: cache: 32 ways"},
		{"set count not a power of two", func(c *Config) { c.L3Capacity = 3 << 20 }, "L3: cache: 3072 sets"},
		{"negative L1 associativity", func(c *Config) { c.L1Ways = -1 }, "L1: cache: non-positive"},
		{"L2 capacity not a whole number of sets", func(c *Config) { c.L2Capacity = 1000 }, "L2: cache: capacity"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
			c.edit(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("RunCtx panicked: %v", p)
				}
			}()
			_, err := RunCtx(context.Background(), smallWorkload("ferret", 64<<10), cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RunCtx error = %v, want one containing %q", err, c.want)
			}
		})
	}
}
