package shiftctrl

import (
	"strings"
	"testing"
)

func TestParseScheme(t *testing.T) {
	cases := map[string]Scheme{
		"baseline":        Baseline,
		"none":            Baseline,
		"sts":             STSOnly,
		"sed":             SED,
		"secded":          SECDED,
		"pecc":            SECDED,
		"pecco":           PECCO,
		"pecc-o":          PECCO,
		"worst":           PECCSWorst,
		"pecc-s-worst":    PECCSWorst,
		"adaptive":        PECCSAdaptive,
		"pecc-s-adaptive": PECCSAdaptive,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseScheme("magic")
	if err == nil || !strings.Contains(err.Error(), `unknown scheme "magic"`) {
		t.Errorf("ParseScheme(\"magic\") error = %v, want unknown scheme \"magic\"", err)
	}
}
