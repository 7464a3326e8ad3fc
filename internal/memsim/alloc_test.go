package memsim

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
)

// TestAccessLoopAllocationFree: a racetrack run allocates only while it
// sets up, so its allocation count does not grow with its length. A
// per-access or per-shift allocation anywhere in the access loop, the
// shift planning, the reliability accounting or, with a registry
// attached, the publishing fails it. The sampler stays off: its window
// cuts snapshot the registry, which allocates by design.
func TestAccessLoopAllocationFree(t *testing.T) {
	// The runtime now and then counts an object or a few of its own
	// against a run: after a garbage collection (the unique package's map
	// cleanup), and rarely without one. Collections are held off, and
	// each length keeps the least of three counts. The run path itself
	// stays clear of fmt, whose printer pool drops entries at random
	// under the race detector.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := scaledWorkload("canneal")
	for _, s := range []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.SECDED, shiftctrl.PECCO,
		shiftctrl.PECCSWorst, shiftctrl.PECCSAdaptive} {
		for _, eager := range []bool{false, true} {
			for _, promo := range []int{0, 16} {
				for _, attached := range []bool{false, true} {
					runtime.GC() // bound the heap while collections are off
					allocs := func(accesses int) float64 {
						cfg := scaledConfig(energy.Racetrack, s)
						cfg.AccessesPerCore = accesses
						cfg.EagerHead = eager
						cfg.PromoEntries = promo
						if attached {
							cfg.Metrics = telemetry.NewRegistry()
						}
						least := math.Inf(1)
						for range 3 {
							least = min(least, testing.AllocsPerRun(1, func() {
								if _, err := Run(w, cfg); err != nil {
									t.Fatal(err)
								}
							}))
						}
						return least
					}
					short, long := allocs(500), allocs(2000)
					if short != long {
						t.Errorf("%v eager=%v promo=%d attached=%v: %v allocations at 500 accesses/core, %v at 2000",
							s, eager, promo, attached, short, long)
					}
				}
			}
		}
	}
}
