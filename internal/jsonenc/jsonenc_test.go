package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// String and Float write json.Marshal's bytes at the edges of its rules;
// FuzzEventJSON (internal/telemetry/events) and FuzzFingerprint
// (internal/memsim) hold them to it over arbitrary input.
func TestMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii", "<a href='x'>&amp;</a>", `quote " back\slash`,
		"ctl \x00\x01\b\f\n\r\t\x1b\x1f del \x7f", "bad \xff\xfe utf8 \xc3", "sep \xe2\x80\xa8 \xe2\x80\xa9 end",
		"é ü 日本 \xf0\x9f\x98\x80",
	} {
		want, _ := json.Marshal(s)
		if got := String(nil, s); string(got) != string(want) {
			t.Errorf("String(%q) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 1e-7, 9.999999e-7, 1e-6, 1e20, 1e21, -1e22,
		123456.789, 5e-324, 2.5e-310, math.MaxFloat64,
	} {
		want, _ := json.Marshal(f)
		got, err := Float(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("Float(%v) = %s, %v, want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := Float([]byte("x"), f)
		if err == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("Float(%v) = %q, %v, want nothing appended and %v", f, got, err, want)
		}
	}
}
