package profile

// Automated pprof capture. A Capture owns a set of requested profile
// kinds and writes them with deterministic names derived from one base
// path, so a run's profiles always land next to its manifest and can be
// referenced from it:
//
//	<base>.cpu.pprof            run-scoped CPU profile
//	<base>.heap.pprof           live-heap profile at Stop
//	<base>.allocs.pprof         cumulative allocation profile at Stop
//	<base>.mutex.pprof          contended-mutex profile at Stop
//	<base>.block.pprof          blocking profile at Stop

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
)

// Kind names one profile the capturer can produce.
type Kind string

// The supported kinds. CPU is streamed for the capture's lifetime; the
// others are point-in-time snapshots written at Stop.
const (
	CPU    Kind = "cpu"
	Heap   Kind = "heap"
	Allocs Kind = "allocs"
	Mutex  Kind = "mutex"
	Block  Kind = "block"
)

// AllKinds is every supported kind, the expansion of -profile all.
var AllKinds = []Kind{CPU, Heap, Allocs, Mutex, Block}

// Sampling rates installed while mutex/block profiling is requested.
// Mutex samples 1/5 of contention events; block samples every blocking
// event that lasted at least one microsecond. Both are restored (mutex)
// or disabled (block) at Stop.
const (
	MutexFraction = 5
	BlockRateNS   = 1000
)

// ParseKinds parses a comma-separated kind list ("cpu,heap"); "all"
// expands to every kind, "" to none.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return append([]Kind{}, AllKinds...), nil
	}
	seen := map[Kind]bool{}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		k := Kind(strings.TrimSpace(part))
		switch k {
		case CPU, Heap, Allocs, Mutex, Block:
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		default:
			return nil, fmt.Errorf("profile: unknown kind %q (want cpu, heap, allocs, mutex, block, or all)", part)
		}
	}
	return out, nil
}

// Capture writes the requested profiles around one run. A nil *Capture
// is a valid disabled handle: every method is a no-op.
type Capture struct {
	mu        sync.Mutex
	base      string
	kinds     map[Kind]bool
	cpuFile   *os.File
	files     []string
	prevMutex int
	started   bool
	stopped   bool
}

// New builds a capture writing <base>.<kind>.pprof files. Returns nil
// when kinds is empty, so callers can thread the result unconditionally.
func New(base string, kinds []Kind) *Capture {
	if len(kinds) == 0 {
		return nil
	}
	c := &Capture{base: base, kinds: map[Kind]bool{}}
	for _, k := range kinds {
		c.kinds[k] = true
	}
	return c
}

// Start begins capture: the CPU profile starts streaming and the
// mutex/block samplers are installed when requested.
func (c *Capture) Start() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return nil
	}
	c.started = true
	if c.kinds[Mutex] {
		c.prevMutex = runtime.SetMutexProfileFraction(MutexFraction)
	}
	if c.kinds[Block] {
		runtime.SetBlockProfileRate(BlockRateNS)
	}
	return c.startCPULocked()
}

func (c *Capture) path(kind Kind) string {
	return fmt.Sprintf("%s.%s.pprof", c.base, kind)
}

func (c *Capture) startCPULocked() error {
	if !c.kinds[CPU] {
		return nil
	}
	f, err := os.Create(c.path(CPU))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("profile: %w", err)
	}
	c.cpuFile = f
	return nil
}

func (c *Capture) stopCPULocked() error {
	if c.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := c.cpuFile.Close()
	c.files = append(c.files, c.cpuFile.Name())
	c.cpuFile = nil
	return err
}

// writeLookupLocked snapshots one named runtime profile to its
// deterministic path.
func (c *Capture) writeLookupLocked(name string, kind Kind) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("profile: runtime profile %q unavailable", name)
	}
	path := c.path(kind)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if err := p.WriteTo(f, 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.files = append(c.files, path)
	return nil
}

// Stop finalizes every requested profile and returns the full list of
// files written, sorted. Safe to call twice; the second call returns the
// same list.
func (c *Capture) Stop() ([]string, error) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started || c.stopped {
		return append([]string{}, c.files...), nil
	}
	c.stopped = true
	firstErr := c.stopCPULocked()
	for _, k := range []Kind{Heap, Allocs, Mutex, Block} {
		if !c.kinds[k] {
			continue
		}
		if err := c.writeLookupLocked(string(k), k); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.kinds[Mutex] {
		runtime.SetMutexProfileFraction(c.prevMutex)
	}
	if c.kinds[Block] {
		runtime.SetBlockProfileRate(0)
	}
	sort.Strings(c.files)
	return append([]string{}, c.files...), firstErr
}
