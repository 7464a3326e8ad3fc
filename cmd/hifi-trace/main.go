// Command hifi-trace records, inspects, and summarizes workload traces.
// It simulates nothing, so it takes only its own flags and -v/-q.
//
// Usage:
//
//	hifi-trace -workload canneal -n 100000 -o canneal.hftr   # record
//	hifi-trace -i canneal.hftr -stats                         # summarize
//	hifi-trace -i canneal.hftr -head 20                       # dump records
//
// A trace file (.hftr, version 2) holds 8 bytes an access, the records
// the simulator keeps for replay (see trace.WriteTrace); version 1 files
// no longer read. -stats on a trace of no records prints its count alone.
//
// An unknown -workload, a -core the simulated system does not have, an
// -n below 1 or a negative -head exits 2 with a message naming the flag.
package main

import (
	"flag"
	"fmt"
	"os"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to record")
		core     = flag.Int("core", 0, "core whose stream to record")
		n        = flag.Int("n", 100_000, "records to generate")
		seed     = flag.Uint64("seed", 1, "trace seed")
		out      = flag.String("o", "", "output trace file")
		in       = flag.String("i", "", "input trace file to inspect")
		head     = flag.Int("head", 0, "dump the first N records")
		stats    = flag.Bool("stats", false, "print summary statistics")
	)
	logLevel := cliutil.AddLogLevel(flag.CommandLine)
	flag.Parse()
	logLevel.Apply()
	if err := checkFlags(*core, *n, *head); err != nil {
		log.Errorf("hifi-trace: %v", err)
		os.Exit(2)
	}

	switch {
	case *workload != "" && *out != "":
		w, err := cliutil.Workload(*workload)
		if err != nil {
			log.Errorf("hifi-trace: %v", err)
			os.Exit(2)
		}
		record(w, *core, *n, *seed, *out)
	case *in != "":
		inspect(*in, *head, *stats)
	default:
		log.Errorf("hifi-trace: use -workload/-o to record or -i to inspect")
		os.Exit(2)
	}
}

// checkFlags rejects values no trace has; the generator would draw a
// stream for a core the simulated system lacks all the same.
func checkFlags(core, n, head int) error {
	if core < 0 || core >= memsim.DefaultCores {
		return fmt.Errorf("-core must be in [0, %d), the simulated system's cores, got %d", memsim.DefaultCores, core)
	}
	if head < 0 {
		return fmt.Errorf("-head must be >= 0, got %d", head)
	}
	return checkCount(n)
}

// checkCount rejects a record length that names no access.
func checkCount(n int) error {
	if n <= 0 {
		return fmt.Errorf("-n must be at least 1, got %d", n)
	}
	return nil
}

func record(w trace.Workload, core, n int, seed uint64, path string) {
	recs := trace.NewGenerator(w, core, seed).Take(n)
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("hifi-trace: %v", err)
	}
	if err := trace.WriteTrace(f, recs); err != nil {
		_ = f.Close()
		log.Fatalf("hifi-trace: write: %v", err)
	}
	// Close before reporting: a short write surfaces here, and the size
	// on disk is final.
	if err := f.Close(); err != nil {
		log.Fatalf("hifi-trace: close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatalf("hifi-trace: stat: %v", err)
	}
	log.Infof("recorded %d accesses of %s (core %d) to %s (%d bytes)",
		n, w.Name, core, path, fi.Size())
}

func inspect(path string, head int, stats bool) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("hifi-trace: %v", err)
	}
	recs, err := trace.ReadTrace(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("hifi-trace: read: %v", err)
	}
	log.Debugf("loaded %d records from %s", len(recs), path)
	fmt.Printf("%s: %d records\n", path, len(recs))
	var writes, gaps int
	lines := map[uint64]bool{}
	var maxAddr uint64
	r := trace.NewReplay(recs)
	for i := range recs {
		if i >= head && !stats {
			break
		}
		a := r.Next()
		if i < head {
			op := "R"
			if a.Write {
				op = "W"
			}
			fmt.Printf("  %6d  %s %#010x  gap=%d\n", i, op, a.Addr, a.Gap)
		}
		if a.Write {
			writes++
		}
		gaps += a.Gap
		lines[a.Addr] = true
		maxAddr = max(maxAddr, a.Addr)
	}
	// A trace of no records has no ratios to print.
	if !stats || len(recs) == 0 {
		return
	}
	n := float64(len(recs))
	fmt.Printf("  writes      %.1f%%\n", 100*float64(writes)/n)
	fmt.Printf("  mean gap    %.2f cycles\n", float64(gaps)/n)
	fmt.Printf("  footprint   %d lines (%.1f MB max addr)\n", len(lines), float64(maxAddr)/(1<<20))
	fmt.Printf("  reuse       %.2f accesses/line\n", n/float64(len(lines)))
}
