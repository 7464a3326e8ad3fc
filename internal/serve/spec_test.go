package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"racetrack/hifi/internal/experiments"
)

// Equivalent specs — different spelling, same run — must fingerprint
// identically; that equality is the cross-client dedup key.
func TestFingerprintNormalization(t *testing.T) {
	a := Spec{Run: []string{" FIG14 "}, Scaled: true}
	b := Spec{Run: []string{"fig14"}, Scaled: true, Seed: 1, Faults: "off", FaultIntensity: 1}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Fingerprint() != nb.Fingerprint() {
		t.Fatalf("equivalent specs fingerprint differently:\n%+v\n%+v", na, nb)
	}

	c := b
	c.Seed = 2
	nc, err := c.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if nc.Fingerprint() == nb.Fingerprint() {
		t.Fatalf("different seeds share a fingerprint")
	}
}

func TestFingerprintFaultPlanWhitespace(t *testing.T) {
	a := Spec{Run: []string{"fig14"}, FaultPlan: json.RawMessage(`{ "seed": 3,   "injectors": [] }`)}
	b := Spec{Run: []string{"fig14"}, FaultPlan: json.RawMessage(`{"seed":3,"injectors":[]}`)}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Fingerprint() != nb.Fingerprint() {
		t.Fatalf("fault-plan whitespace changed the fingerprint")
	}
}

func TestNormalizeEmptyRunMeansAll(t *testing.T) {
	n, err := Spec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(n.Run, ","), strings.Join(experiments.Order(), ","); got != want {
		t.Fatalf("empty run normalized to %q, want every experiment", got)
	}
	if n.Seed != 1 || n.Faults != "off" || n.FaultIntensity != 1 {
		t.Fatalf("defaults not made explicit: %+v", n)
	}
	// A list of blank keys (the CLI's `-run ,`) is empty too.
	b, err := Spec{Run: []string{"", " "}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint() != n.Fingerprint() {
		t.Fatalf("blank run normalized to %q, want every experiment", b.Run)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Run: []string{"fig99"}},                             // unknown experiment
		{Run: []string{"fig14"}, Accesses: -1},               // negative accesses
		{Run: []string{"fig14"}, MCTrials: -2},               // negative trials
		{Run: []string{"fig14"}, Faults: "no-such-preset"},   // bad preset
		{Run: []string{"fig14"}, FaultPlan: []byte(`{nope`)}, // bad plan JSON
	}
	for i, spec := range cases {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("case %d: %+v normalized without error", i, spec)
		}
	}
}

// The fingerprint is the key of job indexes and dedup tables written by
// earlier daemons, so its bytes are pinned: the spec's JSON shape, its
// normalization, the schema prefix and the registry's key order (an
// empty run expands to every key in order) all feed it.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"run":["fig14"],"scaled":true,"accesses":300}`, "738f10a68c60c9bd908fb3f422b073b3a564f53496cedc7f4f4441ab6e4d4974"},
		{`{}`, "0fcb972a5312c31460dc7510f54a0389983c0b1325b406add862252a1dd3010e"},
		{`{"run":["fig10","fig14"],"scaled":true,"seed":7,"faults":"temp","fault_intensity":2}`,
			"8ba53c095f853c30e38d7130b7d94ae68b6be67ef508bdf50faf69484ce2a6b6"},
	} {
		var s Spec
		if err := json.Unmarshal([]byte(tc.body), &s); err != nil {
			t.Fatal(err)
		}
		n, err := s.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if got := n.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.body, got, tc.want)
		}
	}
}

// RunOpts is how every entry point sizes a sweep: a scaled spec starts
// from QuickRunOpts, overrides land on top.
func TestRunOptsMirrorsCLI(t *testing.T) {
	n, err := Spec{Run: []string{"fig14"}, Scaled: true, Accesses: 300, Seed: 7, MCTrials: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.RunOpts()
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.QuickRunOpts()
	want.AccessesPerCore = 300
	want.Seed = 7
	want.MCTrials = 9
	if got.AccessesPerCore != want.AccessesPerCore || got.Seed != want.Seed ||
		got.MCTrials != want.MCTrials || got.Scaled != want.Scaled {
		t.Fatalf("RunOpts mismatch: got %+v want %+v", got, want)
	}
	if got.FaultPlan != nil {
		t.Fatalf("faults off resolved to a non-nil plan")
	}
}

// FuzzSpecNormalize: no body that decodes into a Spec panics Normalize,
// and a spec it accepts is a fixed point — normalizing it again, or
// sending its JSON encoding through decode and Normalize, keeps its
// Fingerprint, the server's dedup key.
func FuzzSpecNormalize(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"run":["fig14"],"scaled":true,"accesses":300}`,
		`{"run":[" FIG14 ","","Fig10"],"seed":7,"mc_trials":9,"faults":"temp","fault_intensity":2}`,
		`{"run":["fig14"],"fault_plan":{ "seed": 3,   "injectors": [] }}`,
		`{"run":["fig99"],"accesses":-1}`,
		`{"run":["fig14"],"fault_plan":null,"fault_intensity":-0.5}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		n, err := s.Normalize()
		if err != nil {
			return
		}
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected: %v", n, err)
		}
		if !reflect.DeepEqual(n, n2) || n.Fingerprint() != n2.Fingerprint() {
			t.Fatalf("renormalizing changed the spec: %+v -> %+v", n, n2)
		}
		enc, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		var d Spec
		if err := json.Unmarshal(enc, &d); err != nil {
			t.Fatalf("encoding %s does not decode: %v", enc, err)
		}
		nd, err := d.Normalize()
		if err != nil {
			t.Fatalf("encoding %s rejected: %v", enc, err)
		}
		if nd.Fingerprint() != n.Fingerprint() {
			t.Fatalf("encoding %s changed the fingerprint: %+v -> %+v", enc, n, nd)
		}
	})
}
