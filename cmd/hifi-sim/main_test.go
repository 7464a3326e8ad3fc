package main

import (
	"testing"

	"racetrack/hifi/internal/energy"
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
