// Package serve is the multi-tenant sweep daemon behind cmd/hifi-serve:
// an HTTP/JSON job API over the existing experiment stack. Clients POST
// sweep specs, the server runs them through internal/experiments on the
// parallel engine with one shared content-addressed cache, and results
// come back three ways — pollable JSON status, rendered tables that are
// byte-identical to a direct hifi-experiments run, and a per-job SSE
// event stream with Last-Event-ID replay.
//
// Tenancy is cheap because the platform underneath is deterministic:
// identical specs fingerprint identically, a spec submitted while an
// equal one is queued or running coalesces onto that job, and a spec
// resubmitted after completion re-runs through the shared cache and
// executes nothing. Admission control (a bounded queue and per-client
// token buckets) and graceful drain (finish what is running, leave the
// rest queued in the job index for -resume) make the daemon safe to put
// in front of more clients than the machine could serve naively. See
// docs/serve.md.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/faults"
)

// SpecSchema versions the spec fingerprint; bump it when the normalized
// encoding below changes shape, so old and new daemons never conflate
// differently-normalized specs.
const SpecSchema = 1

// Spec is one sweep request: which experiments to run and the knobs the
// hifi-experiments CLI exposes for them. The zero value of every field
// means "the CLI default", so a minimal {"run":["fig14"]} body behaves
// exactly like `hifi-experiments -run fig14`.
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

// Normalize returns the spec in canonical form: run keys trimmed,
// lowercased, and expanded (empty Run → every experiment), defaults
// made explicit where the CLI would apply them anyway (Seed 0 → 1,
// FaultIntensity 0 → 1, Faults "" → "off"), and the inline fault plan
// compacted. Two specs that would run identically normalize to equal
// values, which is what makes Fingerprint a dedup key.
func (s Spec) Normalize() (Spec, error) {
	n := s
	if len(s.Run) == 0 {
		n.Run = experiments.Order()
	} else {
		n.Run = make([]string, 0, len(s.Run))
		for _, k := range s.Run {
			k = strings.TrimSpace(strings.ToLower(k))
			if k != "" {
				n.Run = append(n.Run, k)
			}
		}
		if len(n.Run) == 0 {
			n.Run = experiments.Order()
		}
	}
	if n.Accesses < 0 {
		return Spec{}, fmt.Errorf("serve: accesses must be >= 0, got %d", n.Accesses)
	}
	if n.MCTrials < 0 {
		return Spec{}, fmt.Errorf("serve: mc_trials must be >= 0, got %d", n.MCTrials)
	}
	if n.Seed == 0 {
		n.Seed = 1 // the CLI default; 0 would fall through to it anyway
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
			return Spec{}, fmt.Errorf("serve: fault_plan: %w", err)
		}
		n.FaultPlan = json.RawMessage(buf.Bytes())
	}
	valid := make(map[string]bool)
	for _, k := range experiments.Order() {
		valid[k] = true
	}
	var unknown []string
	for _, k := range n.Run {
		if !valid[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		return Spec{}, fmt.Errorf("serve: unknown experiment(s): %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(experiments.Order(), " "))
	}
	// Resolving the plan now surfaces bad plans/presets/intensities at
	// admission (HTTP 400) instead of as a failed job later.
	if _, err := n.Plan(); err != nil {
		return Spec{}, fmt.Errorf("serve: %w", err)
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
// of its canonical JSON under the spec schema. Equal fingerprints mean
// "this sweep would run identically", which is the server's dedup key
// across clients. Call on a normalized spec.
func (s Spec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("serve: spec fingerprint: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "hifi-serve-spec/%d|", SpecSchema)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// RunOpts builds the experiments options exactly as cmd/hifi-experiments
// builds them from the equivalent flags — same default structs, same
// override order — so the rendered tables are byte-identical to a
// direct CLI run. Call on a normalized spec.
func (s Spec) RunOpts() (experiments.RunOpts, error) {
	opts := experiments.DefaultRunOpts()
	if s.Scaled {
		opts = experiments.QuickRunOpts()
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
