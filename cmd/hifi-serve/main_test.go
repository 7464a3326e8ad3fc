package main

import (
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/serve"
)

// A count or size the daemon cannot use, and a -rate that is negative
// or not finite, are refused with a message naming the flag.
func TestCheckOptions(t *testing.T) {
	valid := serve.Options{Runners: 2, Queue: 16, Burst: 4}
	for _, tc := range []struct {
		edit func(*serve.Options)
		flag string // "" = valid
	}{
		{func(o *serve.Options) {}, ""},
		{func(o *serve.Options) { o.Workers, o.Rate, o.MaxAccesses, o.CacheMaxBytes = 4, 2.5, 1000, 1<<30 }, ""},
		{func(o *serve.Options) { o.Runners, o.Queue, o.Burst = 1, 1, 1 }, ""},
		{func(o *serve.Options) { o.Workers = -1 }, "-workers"},
		{func(o *serve.Options) { o.Runners = -1 }, "-runners"},
		{func(o *serve.Options) { o.Runners = 0 }, "-runners"},
		{func(o *serve.Options) { o.Queue = -1 }, "-queue"},
		{func(o *serve.Options) { o.Rate = math.NaN() }, "-rate"},
		{func(o *serve.Options) { o.Rate = math.Inf(1) }, "-rate"},
		{func(o *serve.Options) { o.Rate = -1 }, "-rate"},
		{func(o *serve.Options) { o.Burst = -4 }, "-burst"},
		{func(o *serve.Options) { o.MaxAccesses = -1 }, "-max-accesses"},
		{func(o *serve.Options) { o.CacheMaxBytes = -1 }, "-cache-max-bytes"},
	} {
		o := valid
		tc.edit(&o)
		err := checkOptions(o)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkOptions(%+v) = %v", o, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("checkOptions(%+v) = %v, want an error naming %s", o, err, tc.flag)
		}
	}
}
