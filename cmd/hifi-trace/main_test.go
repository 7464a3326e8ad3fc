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

// A core the simulated system does not have and a negative dump length
// are refused with a message naming the flag; so is a bad -n, through
// the same check.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		core, n, head int
		flag          string // "" = valid
	}{
		{0, 100_000, 0, ""},
		{3, 1, 20, ""},
		{4, 100, 0, "-core"},
		{99, 100, 0, "-core"},
		{-1, 100, 0, "-core"},
		{0, 100, -1, "-head"},
		{0, 0, 0, "-n"},
	} {
		err := checkFlags(tc.core, tc.n, tc.head)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkFlags(%d, %d, %d) = %v", tc.core, tc.n, tc.head, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("checkFlags(%d, %d, %d) = %v, want an error naming %s", tc.core, tc.n, tc.head, err, tc.flag)
		}
	}
}
