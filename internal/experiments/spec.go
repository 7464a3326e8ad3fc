package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"racetrack/hifi/internal/faults"
)

// SpecSchema versions the spec fingerprint; bump it when the normalized
// encoding below changes shape, so old and new daemons never conflate
// differently-normalized specs.
const SpecSchema = 1

// Spec is the one description of a sweep: hifi-serve decodes it from a
// POST /v1/jobs body, and hifi-experiments, hifi-report and hifi-chaos
// fill it from their flags. A zero field means the default, so
// {"run":["fig14"]} runs exactly like `hifi-experiments -run fig14`.
type Spec struct {
	// Run lists experiment keys (see `hifi-experiments -list`); empty
	// means all of them, in canonical order.
	Run []string `json:"run,omitempty"`
	// Scaled selects the scaled-down hierarchy (CLI -scaled).
	Scaled bool `json:"scaled,omitempty"`
	// Accesses is the trace length per core (CLI -accesses; 0 default).
	Accesses int `json:"accesses,omitempty"`
	// Seed selects the trace family (CLI -seed; 0 means the default, 1).
	Seed uint64 `json:"seed,omitempty"`
	// MCTrials is the fig4 Monte-Carlo trial count (CLI -mc-trials).
	MCTrials int `json:"mc_trials,omitempty"`
	// Faults names a fault-injection preset (CLI -faults; "" = "off").
	Faults string `json:"faults,omitempty"`
	// FaultPlan is an inline fault plan, overriding the preset exactly
	// like -fault-plan overrides -faults.
	FaultPlan json.RawMessage `json:"fault_plan,omitempty"`
	// FaultIntensity scales the plan (CLI -fault-intensity; 0 means 1).
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
}

// Normalize returns the spec in canonical form: run keys trimmed and
// lowercased (no non-blank key → every experiment), defaults made
// explicit (Seed 0 → 1, FaultIntensity 0 → 1, Faults "" → "off"), and
// the inline fault plan compacted. Two specs that would run identically
// normalize to equal values, which makes Fingerprint a dedup key. Its
// errors are what hifi-serve answers 400 with and the CLIs exit 2 with.
func (s Spec) Normalize() (Spec, error) {
	n := s
	n.Run = make([]string, 0, len(s.Run))
	for _, k := range s.Run {
		if k = strings.TrimSpace(strings.ToLower(k)); k != "" {
			n.Run = append(n.Run, k)
		}
	}
	if len(n.Run) == 0 {
		n.Run = Order()
	}
	if n.Accesses < 0 {
		return Spec{}, fmt.Errorf("experiments: accesses must be >= 0, got %d", n.Accesses)
	}
	if n.MCTrials < 0 {
		return Spec{}, fmt.Errorf("experiments: mc_trials must be >= 0, got %d", n.MCTrials)
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Faults == "" {
		n.Faults = "off"
	}
	if n.FaultIntensity == 0 {
		n.FaultIntensity = 1
	}
	if len(n.FaultPlan) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, n.FaultPlan); err != nil {
			return Spec{}, fmt.Errorf("experiments: fault_plan: %w", err)
		}
		n.FaultPlan = json.RawMessage(buf.Bytes())
	}
	var unknown []string
	for _, k := range n.Run {
		if lookup(k) == nil {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		return Spec{}, fmt.Errorf("experiments: unknown experiment(s): %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(Order(), " "))
	}
	// Resolving the plan now surfaces bad plans/presets/intensities
	// before anything runs (HTTP 400, CLI exit 2).
	if _, err := n.Plan(); err != nil {
		return Spec{}, fmt.Errorf("experiments: %w", err)
	}
	return n, nil
}

// Plan resolves the spec's fault-plan sources with the same precedence
// as the CLI flags (faults.Resolve), so a spec and the equivalent flag
// set produce byte-identical canonical plans — and therefore identical
// engine cache fingerprints.
func (s Spec) Plan() (*faults.Plan, error) {
	intensity := s.FaultIntensity
	if intensity == 0 {
		intensity = 1
	}
	return faults.Resolve(s.Faults, s.FaultPlan, intensity)
}

// Fingerprint content-addresses the normalized spec: the sha256 (hex)
// of its canonical JSON under the spec schema, hifi-serve's dedup key
// and job-index key. Call on a normalized spec.
func (s Spec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("experiments: spec fingerprint: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "hifi-serve-spec/%d|", SpecSchema)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// RunOpts builds the run options the spec describes: the full-size or
// scaled defaults with the spec's overrides and fault plan on top. The
// caller adds its telemetry and engine.
func (s Spec) RunOpts() (RunOpts, error) {
	opts := DefaultRunOpts()
	if s.Scaled {
		opts = QuickRunOpts()
	}
	if s.Accesses > 0 {
		opts.AccessesPerCore = s.Accesses
	}
	if s.Seed != 0 {
		opts.Seed = s.Seed
	}
	if s.MCTrials > 0 {
		opts.MCTrials = s.MCTrials
	}
	plan, err := s.Plan()
	if err != nil {
		return opts, err
	}
	opts.FaultPlan = plan
	return opts, nil
}
