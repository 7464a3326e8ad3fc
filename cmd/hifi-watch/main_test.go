package main

import (
	"strings"
	"testing"
	"time"
)

// A redraw period that is not positive is refused with a message naming
// the flag, before a ticker is asked for it.
func TestCheckInterval(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second, -1} {
		if err := checkInterval(d); err == nil || !strings.HasPrefix(err.Error(), "-interval ") {
			t.Errorf("checkInterval(%v) = %v, want an -interval error", d, err)
		}
	}
	for _, d := range []time.Duration{1, time.Second} {
		if err := checkInterval(d); err != nil {
			t.Errorf("checkInterval(%v) = %v", d, err)
		}
	}
}
