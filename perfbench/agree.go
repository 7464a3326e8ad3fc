package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// savedRun is one run's saved standard output: its provenance line and
// its result line.
type savedRun struct {
	path string
	prov provenance
	res  result
}

func readSavedRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	r := savedRun{path: path}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, `{"bench":"perfbench"`) {
			if err := json.Unmarshal([]byte(line), &r.prov); err != nil {
				return r, fmt.Errorf("%s: provenance: %w", path, err)
			}
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.prov.Workload == "" {
		return r, fmt.Errorf("%s: no perfbench provenance line", path)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	return r, nil
}

// verdict is the comparison rule's outcome for one metric.
type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// compareMetric judges side b against side a for one metric. b regresses
// when its median is worse than a's by more than the bound; it is better
// when it wins at least nine tenths of the pairs and the medians differ
// by more than a's quartile spread. When either side's own spread exceeds
// the bound the metric is unresolved, unless every b run beats every a run.
func compareMetric(m metricDecl, a, b []float64) (verdict, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	// worse(x, y) > 0 when y is worse than x, as a share of x.
	worse := func(x, y float64) float64 {
		if m.Better == "higher" {
			return (x - y) / math.Abs(x)
		}
		return (y - x) / math.Abs(x)
	}
	change := worse(ma, mb)
	wins := 0
	for i := range a {
		if i < len(b) && worse(a[i], b[i]) < 0 {
			wins++
		}
	}
	winShare := float64(wins) / float64(min(len(a), len(b)))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	gain := winShare >= 0.9 && math.Abs(mb-ma) > q3a-q1a && change < 0
	switch {
	case allBetter && gain:
		return better, change
	case spread > m.Bound:
		return unresolved, change
	case change > m.Bound:
		return regressed, change
	case gain:
		return better, change
	}
	return same, change
}

// runAgree compares two sets of saved runs, per workload and end-to-end
// metric, against the bounds in BENCHMARK.json. Each side's runs are
// sorted by seed and paired in that order. Outputs of equal seeds must
// hash equally, and no run may fail. It returns 1 when anything regressed.
func runAgree(w io.Writer, args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench -agree A.out... -- B.out...")
		return 2
	}
	decl, err := readDeclaration(declPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	load := func(paths []string) map[string][]savedRun {
		out := map[string][]savedRun{}
		for _, p := range paths {
			r, err := readSavedRun(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(2)
			}
			if r.prov.Trace != 0 {
				fmt.Fprintf(os.Stderr, "perfbench: skipping traced run %s\n", p)
				continue
			}
			out[r.prov.Workload] = append(out[r.prov.Workload], r)
		}
		for _, rs := range out {
			sort.Slice(rs, func(i, j int) bool { return rs[i].prov.Seed < rs[j].prov.Seed })
		}
		return out
	}
	sideA, sideB := load(args[:split]), load(args[split+1:])

	var names []string
	for name := range sideA {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tbound\tverdict")
	for _, name := range names {
		a, b := sideA[name], sideB[name]
		if len(b) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t%d runs\t0 runs\t-\t-\t%s\n", name, len(a), unresolved)
			continue
		}
		for _, m := range decl.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			v, change := compareMetric(m, av, bv)
			if v == regressed {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, m.Unit, spreadText(av), spreadText(bv), 100*change, 100*m.Bound, v)
		}
		if problems := determinism(a, b); len(problems) > 0 {
			status = 1
			for _, p := range problems {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%s\n", name, p, regressed)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	return status
}

func values(runs []savedRun, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.res.Metrics[name].Value)
	}
	return out
}

func spreadText(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

// determinism lists what must hold exactly across the two sides: no run
// failed, and runs of equal seeds produced equal output digests.
func determinism(a, b []savedRun) []string {
	var out []string
	digests := map[uint64]string{}
	for _, r := range append(append([]savedRun(nil), a...), b...) {
		if !r.res.Correct || r.res.Failed > 0 {
			out = append(out, fmt.Sprintf("failed ops in %s", r.path))
		}
		if d, ok := digests[r.prov.Seed]; ok && d != r.prov.OutputsSHA256 {
			out = append(out, fmt.Sprintf("outputs_sha256 differs at seed %d (%s)", r.prov.Seed, r.path))
		}
		digests[r.prov.Seed] = r.prov.OutputsSHA256
	}
	return out
}
