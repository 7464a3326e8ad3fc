package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"racetrack/hifi/internal/telemetry"
)

// registry is the one list of experiments, in paper order followed by
// the ablations: Order, Run and Spec.Normalize all read it.
var registry = []struct {
	key string
	gen func(RunOpts) Table
}{
	{"fig1", analytic(Fig1)},
	{"fig4", func(o RunOpts) Table { return Fig4(o.ctx(), o.MCTrials, o.Seed) }},
	{"table2", analytic(Table2)},
	{"fig7", analytic(Fig7)},
	{"table3", analytic(Table3)},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", analytic(Fig12)},
	{"fig13", analytic(Fig13)},
	{"fig14", Fig14},
	{"fig15", analytic(Fig15)},
	{"fig16", Fig16},
	{"fig17", Fig17},
	{"fig18", Fig18},
	{"table5", analytic(Table5)},
	// Ablations beyond the paper's figures.
	{"abl-strength", analytic(AblationStrength)},
	{"abl-drive", analytic(AblationDrive)},
	{"abl-material", analytic(AblationMaterial)},
	{"abl-becc", analytic(AblationBECC)},
	{"abl-sts", analytic(AblationSTS)},
	{"abl-headpolicy", analytic(AblationHeadPolicy)},
	{"abl-interleave", analytic(AblationInterleave)},
	{"abl-area", analytic(AblationFig7Area)},
	{"abl-promo", AblationPromo},
	{"abl-temp", analytic(AblationTemperature)},
}

// analytic adapts a generator that needs no run options.
func analytic(gen func() Table) func(RunOpts) Table {
	return func(RunOpts) Table { return gen() }
}

// Order lists experiment keys in paper order, followed by the ablations.
func Order() []string {
	keys := make([]string, len(registry))
	for i, e := range registry {
		keys[i] = e.key
	}
	return keys
}

// lookup returns the generator of key, nil for an unknown key.
func lookup(key string) func(RunOpts) Table {
	for _, e := range registry {
		if e.key == key {
			return e.gen
		}
	}
	return nil
}

// Run executes one experiment by key. The Fig*/Table* generators panic
// on simulation failure (a cancelled context included); Run turns that
// into one error naming the experiment.
func Run(key string, opts RunOpts) (t Table, err error) {
	gen := lookup(key)
	if gen == nil {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q", key)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s: %v", key, r)
		}
	}()
	return gen(opts), nil
}

// Sweep runs keys, a normalized Spec's Run, in order under opts: the
// one experiment loop of the CLIs and hifi-serve's jobs. Before each key
// it checks ctx and calls before; the experiment runs under an
// "experiment:<key>" span, and its table goes to after and into the
// returned map. Either callback may be nil. The first error ends the
// sweep with no tables: ctx's (wrapped), an experiment's (Run's one
// line), or after's.
func Sweep(ctx context.Context, keys []string, opts RunOpts, before func(i int, key string),
	after func(i int, key string, t Table) error) (map[string]Table, error) {
	tables := make(map[string]Table, len(keys))
	for i, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted before %s: %w", k, err)
		}
		if before != nil {
			before(i, k)
		}
		kctx, sp := telemetry.StartSpan(ctx, "experiment:"+k)
		opts.Ctx = kctx
		tab, err := Run(k, opts)
		sp.End()
		if err != nil {
			return nil, err
		}
		if after != nil {
			if err := after(i, k, tab); err != nil {
				return nil, err
			}
		}
		tables[k] = tab
	}
	return tables, nil
}

// Render writes the i-th table of a sweep in its printed form: CSV when
// csv is set, else aligned text after a blank line unless it is the
// first. The CLIs print each table so as it finishes.
func Render(w io.Writer, i int, t Table, csv bool) error {
	s := t.CSV()
	if !csv {
		s = t.String()
		if i > 0 {
			s = "\n" + s
		}
	}
	_, err := io.WriteString(w, s)
	return err
}

// Text renders the tables of keys as Render prints them one by one, so
// hifi-serve's text and CSV match the CLIs' stdout byte for byte.
func Text(keys []string, tables map[string]Table, csv bool) string {
	var b strings.Builder
	for i, k := range keys {
		_ = Render(&b, i, tables[k], csv) // a strings.Builder never fails
	}
	return b.String()
}
