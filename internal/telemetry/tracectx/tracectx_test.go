package tracectx

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	g := NewGen(42)
	tc := g.NewContext()
	h := tc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent %q is %d chars, want 55", h, len(h))
	}
	got, err := Parse(h)
	if err != nil {
		t.Fatalf("Parse(%q): %v", h, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q: want version 00 and sampled flags", h)
	}
}

func TestParseMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, err := Parse(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	cases := []struct {
		name, header string
	}{
		{"empty", ""},
		{"too short", "00-abc-def-01"},
		{"bad separators", strings.ReplaceAll(valid, "-", "_")},
		{"uppercase trace-id", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01"},
		{"uppercase parent-id", "00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01"},
		{"non-hex version", "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"forbidden version ff", "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"all-zero trace-id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"all-zero parent-id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"version 00 with trailing data", valid + "-extra"},
		{"future version without separator", "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xx"},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.header); err == nil {
				t.Fatalf("Parse(%q) accepted a malformed header", tt.header)
			}
		})
	}
	// Forward compatibility: a future version may carry extra fields.
	future := "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future-data"
	if _, err := Parse(future); err != nil {
		t.Fatalf("future-version header rejected: %v", err)
	}
}

func TestGenDeterministicAndNonZero(t *testing.T) {
	a, b := NewGen(7), NewGen(7)
	for i := 0; i < 64; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("iteration %d: same seed diverged: %s vs %s", i, ta, tb)
		}
		if ta.IsZero() {
			t.Fatalf("iteration %d: zero trace ID generated", i)
		}
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb || sa.IsZero() {
			t.Fatalf("iteration %d: span IDs %s vs %s", i, sa, sb)
		}
	}
	if NewGen(7).TraceID() == NewGen(8).TraceID() {
		t.Fatal("different seeds produced the same first trace ID")
	}
}

func TestChildKeepsTraceMintsSpan(t *testing.T) {
	g := NewGen(3)
	parent := g.NewContext()
	child := g.Child(parent)
	if child.TraceID != parent.TraceID {
		t.Fatalf("child switched traces: %s vs %s", child.TraceID, parent.TraceID)
	}
	if child.SpanID == parent.SpanID {
		t.Fatal("child reused the parent span ID")
	}
	if child.Flags != parent.Flags {
		t.Fatalf("child flags %02x, want %02x", child.Flags, parent.Flags)
	}
}

func TestContextPropagation(t *testing.T) {
	if _, ok := From(context.Background()); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := NewGen(1).NewContext()
	ctx := Into(context.Background(), tc)
	got, ok := From(ctx)
	if !ok || got != tc {
		t.Fatalf("From: got %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestFromRequest(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	if _, ok := FromRequest(r); ok {
		t.Fatal("headerless request reported a trace")
	}
	tc := NewGen(9).NewContext()
	r.Header.Set(Header, tc.Traceparent())
	got, ok := FromRequest(r)
	if !ok || got != tc {
		t.Fatalf("FromRequest: got %+v ok=%v, want %+v", got, ok, tc)
	}
	r.Header.Set(Header, "00-bogus")
	if _, ok := FromRequest(r); ok {
		t.Fatal("malformed header accepted")
	}
}

// FuzzParse: no header panics Parse, every header it accepts has
// non-zero IDs, and an accepted version-00 header (exactly 55 chars)
// renders back byte for byte.
func FuzzParse(f *testing.F) {
	for _, h := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future-data",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, header string) {
		tc, err := Parse(header)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("Parse(%q) accepted an invalid context %+v", header, tc)
		}
		if strings.HasPrefix(header, "00") {
			if got := tc.Traceparent(); got != header {
				t.Fatalf("Parse(%q).Traceparent() = %q", header, got)
			}
		}
	})
}
