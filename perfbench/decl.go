package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// declPath is where the benchmark declaration lives, relative to the
// repository root the benchmark runs from.
const declPath = "BENCHMARK.json"

// metricDecl is one declared metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is BENCHMARK.json: the single place metric names, units,
// directions and bounds are written down. The program computes values by
// name and takes every unit from here.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read declaration: %w", err)
	}
	var d declaration
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// metrics returns the declared metrics of one mode: end-to-end for an
// untraced run, per-layer for a traced one.
func (d *declaration) metrics(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

// metric is one reported value with its declared unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// attach pairs computed values with their declared units. It fails when
// the values and the declaration disagree on the set of names or when a
// value is not a finite number, so a workload can neither emit an
// undeclared metric nor silently omit a declared one.
func (d *declaration) attach(values map[string]float64, traced bool) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	declared := map[string]bool{}
	var missing, extra, bad []string
	for _, m := range d.metrics(traced) {
		declared[m.Name] = true
		v, ok := values[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			bad = append(bad, m.Name)
		default:
			out[m.Name] = metric{Value: v, Unit: m.Unit}
		}
	}
	for name := range values {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(extra)+len(bad) > 0 {
		return nil, fmt.Errorf("metrics disagree with %s: missing %v, undeclared %v, not finite %v",
			declPath, missing, extra, bad)
	}
	return out, nil
}
