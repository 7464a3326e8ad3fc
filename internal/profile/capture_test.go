package profile

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racetrack/hifi/internal/telemetry"
)

func TestParseKinds(t *testing.T) {
	if ks, err := ParseKinds(""); err != nil || ks != nil {
		t.Errorf("ParseKinds(\"\") = %v, %v", ks, err)
	}
	if ks, err := ParseKinds("all"); err != nil || len(ks) != len(AllKinds) {
		t.Errorf("ParseKinds(all) = %v, %v", ks, err)
	}
	ks, err := ParseKinds("cpu, heap,cpu")
	if err != nil || len(ks) != 2 || ks[0] != CPU || ks[1] != Heap {
		t.Errorf("ParseKinds dedupe = %v, %v", ks, err)
	}
	if _, err := ParseKinds("cpu,banana"); err == nil {
		t.Error("unknown kind accepted")
	}
}

// burn gives the CPU profiler something to sample.
func burn() int {
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	return x
}

func TestCaptureRunScope(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run")
	c := New(base, AllKinds)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	_ = burn()
	files, err := c.Stop()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		base + ".allocs.pprof",
		base + ".block.pprof",
		base + ".cpu.pprof",
		base + ".heap.pprof",
		base + ".mutex.pprof",
	}
	if len(files) != len(want) {
		t.Fatalf("files = %v, want %v", files, want)
	}
	for i, w := range want {
		if files[i] != w {
			t.Errorf("file %d = %s, want %s", i, files[i], w)
		}
		if st, err := os.Stat(w); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", w, err)
		}
	}
	// Stop twice returns the same list without error.
	again, err := c.Stop()
	if err != nil || len(again) != len(files) {
		t.Errorf("second Stop = %v, %v", again, err)
	}
}

func TestCaptureNilAndEmpty(t *testing.T) {
	var c *Capture
	if err := c.Start(); err != nil {
		t.Error(err)
	}
	if files, err := c.Stop(); err != nil || files != nil {
		t.Errorf("nil Stop = %v, %v", files, err)
	}
	if New("base", nil) != nil {
		t.Error("New with no kinds should return nil")
	}
}

func TestHandler(t *testing.T) {
	h := NewHandler(func() telemetry.SpanExport { return testExport() })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/perf", nil))
	body := rec.Body.String()
	if !strings.Contains(body, Schema) || !strings.Contains(body, `"job:a"`) {
		t.Errorf("/perf body missing schema or span rows:\n%s", body)
	}
	if strings.Contains(body, `"resources"`) {
		t.Errorf("resources present before SetResources:\n%s", body)
	}
	h.SetResources(func() any { return map[string]int{"jobs": 7} })
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/perf", nil))
	if body := rec.Body.String(); !strings.Contains(body, `"jobs": 7`) {
		t.Errorf("/perf body missing resources:\n%s", body)
	}
}

func TestHandlerZeroValue(t *testing.T) {
	var h Handler
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/perf", nil))
	if !strings.Contains(rec.Body.String(), Schema) {
		t.Errorf("zero-value handler body = %s", rec.Body.String())
	}
}
