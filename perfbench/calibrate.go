package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines whose vCPUs slow down, by
// tens of percent and for minutes at a time, when the host is busy. The
// guest sees no steal time: its clocks, CPU time included, keep running
// while it simply gets less done. Averaging within a run cannot remove
// such drift, so each run measures the host's speed alongside its own
// work. Before every op each client runs a fixed kernel that shares no
// code with the repository, so no change to the repository can move it,
// and times it on its thread's CPU clock, so the run's own goroutines
// competing for the vCPUs do not count. The run's host-slowdown factor is
// the median kernel time over refCalibration. Reported durations are
// divided by the factor and rates multiplied by it: the end-to-end metrics
// read as on a host that runs the kernel in refCalibration. The provenance
// line keeps the factor and the raw values.

// refCalibration is the kernel's duration on the reference host at rest.
const refCalibration = time.Millisecond

// calibrationRounds fixes the kernel's work: about refCalibration on the
// reference host.
const calibrationRounds = 185_000

// calSink keeps the kernel's result live.
var calSink atomic.Uint32

// calibrate runs the fixed kernel once and returns the CPU time its thread
// spent: xorshift steps with dependent lookups into a 16 KB table,
// integer work that stays in the core's own cache.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const mask = 1<<12 - 1
	t0, _ := threadCPUTime()
	var table [mask + 1]uint32
	x := uint32(2463534242)
	for i := 0; i < calibrationRounds; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[x&mask] += x
		x += table[(x>>7)&mask]
	}
	calSink.Add(x)
	t1, err := threadCPUTime()
	if err != nil {
		// checkThreadClock rejected a host without the clock before any run.
		panic(err)
	}
	return t1 - t0
}

// checkThreadClock reports whether the thread CPU clock calibrate relies
// on is available.
func checkThreadClock() error {
	_, err := threadCPUTime()
	return err
}

// threadCPUTime reads the calling thread's CPU clock
// (CLOCK_THREAD_CPUTIME_ID), which Linux keeps in nanoseconds.
func threadCPUTime() (time.Duration, error) {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
