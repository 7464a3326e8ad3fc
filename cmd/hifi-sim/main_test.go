package main

import (
	"strings"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
)

func TestParseTech(t *testing.T) {
	cases := map[string]energy.Tech{
		"sram": energy.SRAM, "stt": energy.STTRAM, "stt-ram": energy.STTRAM,
		"sttram": energy.STTRAM, "racetrack": energy.Racetrack,
		"rm": energy.Racetrack, "dwm": energy.Racetrack,
	}
	for in, want := range cases {
		got, err := parseTech(in)
		if err != nil || got != want {
			t.Errorf("parseTech(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseTech("flash"); err == nil {
		t.Error("parseTech accepted unknown technology")
	}
}

// An unknown name is refused with a message naming its flag.
func TestResolve(t *testing.T) {
	w, tech, s, err := resolve("canneal", "stt", "pecco")
	if err != nil || w.Name != "canneal" || tech != energy.STTRAM || s != shiftctrl.PECCO {
		t.Errorf("resolve(canneal, stt, pecco) = %s, %v, %v, %v", w.Name, tech, s, err)
	}
	for _, tc := range []struct{ workload, tech, scheme, flag string }{
		{"nope", "racetrack", "adaptive", "-workload nope"},
		{"ferret", "flash", "adaptive", "-tech flash"},
		{"ferret", "racetrack", "nope", "-scheme nope"},
	} {
		if _, _, _, err := resolve(tc.workload, tc.tech, tc.scheme); err == nil || !strings.HasPrefix(err.Error(), tc.flag+":") {
			t.Errorf("resolve(%s, %s, %s) = %v, want an error naming %s", tc.workload, tc.tech, tc.scheme, err, tc.flag)
		}
	}
}

func TestHumanDurations(t *testing.T) {
	cases := map[float64]string{
		3.156e7 * 69: "69 years",
		86400 * 2:    "2 days",
		5:            "5 s",
		2e-6:         "2 us",
	}
	for in, want := range cases {
		if got := human(in); got != want {
			t.Errorf("human(%v) = %q, want %q", in, got, want)
		}
	}
}
