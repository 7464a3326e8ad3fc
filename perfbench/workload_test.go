package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// tinySizes keeps every workload's smoke run to a fraction of a second of
// simulation.
var tinySizes = sizes{
	rtmAccesses:    400,
	sramAccesses:   400,
	servedAccesses: 200,
	warmSpecs:      2,
	coldDigest:     2,
	minOps:         4,
	setups:         2,
	kernelItems:    1,
}

func planKeys(items []simItem) []string {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.key
	}
	return keys
}

func TestPlansAreDrawnFromTheSeed(t *testing.T) {
	cold := func(seed uint64) []string {
		s, err := openServeCold(context.Background(), params{seed: seed, size: tinySizes})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for n := 0; n < 16; n++ {
			b, err := json.Marshal(s.(*servedSession).coldSpec(n))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	warm := func(seed uint64) []string {
		var out []string
		for _, spec := range warmSpecs(seed, defaultSizes) {
			b, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	rtm := func(seed uint64) []string {
		items, _, _ := directRTMPlan(seed, tinySizes)
		return planKeys(items)
	}
	sram := func(seed uint64) []string {
		items, _ := directSRAMPlan(seed, tinySizes)
		return planKeys(items)
	}

	for name, gen := range map[string]func(uint64) []string{
		"direct-rtm": rtm, "direct-sram": sram, "serve-cold": cold, "serve-warm": warm,
	} {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different input lists", name)
		}
		if a, b := gen(7), gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 drew the same input list", name)
		}
	}
}

func TestColdJobsNeverRepeatAndBalanceTheirSweeps(t *testing.T) {
	s, err := openServeCold(context.Background(), params{seed: 3, size: tinySizes})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	count := map[string]int{}
	for n := 0; n < 4*len(coldRuns); n++ {
		spec := s.(*servedSession).coldSpec(n)
		if seeds[spec.Seed] {
			t.Fatalf("job %d reuses trace seed %d", n, spec.Seed)
		}
		seeds[spec.Seed] = true
		count[spec.Run[0]]++
	}
	for _, k := range coldRuns {
		if count[k] != 4 {
			t.Errorf("%s ran %d times in 4 blocks, want 4", k, count[k])
		}
	}
}

func TestWorkloadsMatchTheDeclaration(t *testing.T) {
	decl, err := readDeclaration("../" + declPath)
	if err != nil {
		t.Fatal(err)
	}
	var declared, built []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !reflect.DeepEqual(declared, built) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program has %v", declared, built)
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced: no op
// may fail, and each run must report exactly the declared metrics.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration("../" + declPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{seed: 5, traced: traced, size: tinySizes, tmp: t.TempDir()}
			out, err := measure(context.Background(), wl, p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if out.failed != 0 || len(out.failures) != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", wl.name, traced, out.failed, out.attempted, out.failures)
			}
			if _, err := decl.attach(out.values, traced); err != nil {
				t.Errorf("%s traced=%v: %v", wl.name, traced, err)
			}
		}
	}
}

func TestAttachRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	decl := &declaration{EndToEnd: []metricDecl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}}
	if _, err := decl.attach(map[string]float64{"a": 1, "b": 2}, false); err != nil {
		t.Errorf("exact set rejected: %v", err)
	}
	for _, vals := range []map[string]float64{
		{"a": 1},
		{"a": 1, "b": 2, "c": 3},
	} {
		if _, err := decl.attach(vals, false); err == nil {
			t.Errorf("attach(%v) accepted a set that differs from the declaration", vals)
		}
	}
}
