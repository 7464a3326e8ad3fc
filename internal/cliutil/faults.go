package cliutil

// Shared flag surface for device-plane fault injection: every CLI that
// can run simulations under an off-nominal device registers -faults,
// -fault-plan, and -fault-intensity through FaultFlags so the plan
// sources and their precedence stay uniform. See docs/faults.md.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/telemetry/log"
)

// FaultFlags holds the parsed fault-injection flags for one CLI.
type FaultFlags struct {
	preset    *string
	planPath  *string
	intensity *float64
}

// NewFaultFlags registers the fault flags on the default flag set.
func NewFaultFlags() *FaultFlags { return AddFaultFlags(flag.CommandLine) }

// AddFaultFlags registers the fault flags on fs.
func AddFaultFlags(fs *flag.FlagSet) *FaultFlags {
	ff := &FaultFlags{}
	ff.preset = fs.String("faults", "off",
		"fault-injection preset ("+strings.Join(faults.PresetNames(), "|")+")")
	ff.planPath = fs.String("fault-plan", "",
		"JSON fault plan file (overrides -faults; see docs/faults.md)")
	ff.intensity = fs.Float64("fault-intensity", 1,
		"scale every injector's intensity by this factor")
	return ff
}

// Check resolves the flags into a fault plan: an explicit -fault-plan
// file wins over the -faults preset, and -fault-intensity scales the
// result. Returns nil (the nominal device) when injection is off. An
// unknown preset, an unreadable or invalid plan, or an intensity that
// leaves a plan negative or not finite exits 2 before anything runs,
// like CheckSpec. Resolution itself lives in faults.Resolve so the
// serve API's spec path composes the sources with exactly the same
// precedence.
func (ff *FaultFlags) Check(tool string) *faults.Plan {
	plan, err := ff.plan()
	if err != nil {
		log.Errorf("%s: %v", tool, err)
		os.Exit(2)
	}
	return plan
}

func (ff *FaultFlags) plan() (*faults.Plan, error) {
	var planJSON []byte
	if *ff.planPath != "" {
		b, err := os.ReadFile(*ff.planPath)
		if err != nil {
			return nil, fmt.Errorf("-fault-plan: %w", err)
		}
		planJSON = b
	}
	plan, err := faults.Resolve(*ff.preset, planJSON, *ff.intensity)
	if err != nil {
		source := "-faults " + *ff.preset
		if *ff.planPath != "" {
			source = "-fault-plan " + *ff.planPath
		}
		return nil, fmt.Errorf("%s -fault-intensity %g: %w", source, *ff.intensity, err)
	}
	return plan, nil
}
