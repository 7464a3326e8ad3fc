package main

import (
	"strings"
	"testing"
)

// A record of no accesses, or of a negative count, is refused with a
// message before the generator is asked for it.
func TestCheckCount(t *testing.T) {
	for _, n := range []int{0, -5} {
		if err := checkCount(n); err == nil || !strings.Contains(err.Error(), "-n must be at least 1") {
			t.Errorf("checkCount(%d) = %v, want a -n error", n, err)
		}
	}
	for _, n := range []int{1, 100_000} {
		if err := checkCount(n); err != nil {
			t.Errorf("checkCount(%d) = %v", n, err)
		}
	}
}
