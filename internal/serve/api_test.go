package serve

// HTTP-surface tests: the full client lifecycle over a real listener —
// concurrent submit/stream/cancel from several clients (run under -race
// in CI), admission-rejection status codes, and the REST plumbing
// (tables formats, scorecard, 404s, auth).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"racetrack/hifi/internal/telemetry/events"
)

func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// streamUntilTerminal reads a job's SSE stream to its end and returns
// the event types seen, verifying the terminal-event-last contract.
func streamUntilTerminal(ctx context.Context, base, id string) ([]events.Type, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	var types []events.Type
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var e events.Event
		if err := json.Unmarshal([]byte(strings.TrimSpace(strings.TrimPrefix(line, "data:"))), &e); err != nil {
			return types, err
		}
		types = append(types, e.Type)
		switch e.Type {
		case events.ServeJobFinished, events.ServeJobFailed, events.ServeJobCanceled:
			// The contract says nothing follows; drain to EOF and verify.
			for sc.Scan() {
				rest := sc.Text()
				if strings.HasPrefix(rest, "data:") {
					return types, fmt.Errorf("event after terminal: %s", rest)
				}
			}
			return types, sc.Err()
		}
	}
	if err := sc.Err(); err != nil {
		return types, err
	}
	return types, fmt.Errorf("stream ended without a terminal event (saw %d)", len(types))
}

// Four-plus concurrent clients submitting, streaming, and canceling
// against one daemon — the acceptance scenario CI runs under -race.
func TestHTTPConcurrentClients(t *testing.T) {
	srv := newTestServer(t, testOptions(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []string{
		`{"run":["fig14"],"scaled":true,"accesses":300}`,
		`{"run":["fig14"],"scaled":true,"accesses":300}`, // dedup pair with client 0
		`{"run":["fig14"],"scaled":true,"accesses":300,"seed":2}`,
		`{"run":["table3"],"scaled":true}`,
		`{"run":["fig14"],"scaled":true,"accesses":50000,"seed":3}`, // client 4 cancels this
	}
	ids := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				resp, body := postJSON(t, ts.URL+"/v1/jobs", specs[i], nil)
				if resp.StatusCode != http.StatusAccepted {
					return fmt.Errorf("submit %d: %s: %s", i, resp.Status, body)
				}
				var st JobStatus
				if err := json.Unmarshal(body, &st); err != nil {
					return err
				}
				ids[i] = st.ID
				if i == 4 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
					dresp, err := http.DefaultClient.Do(req)
					if err != nil {
						return err
					}
					_ = dresp.Body.Close()
					// 202 normally; 409 if the job already finished.
					if dresp.StatusCode != http.StatusAccepted && dresp.StatusCode != http.StatusConflict {
						return fmt.Errorf("cancel: %s", dresp.Status)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
				defer cancel()
				types, err := streamUntilTerminal(ctx, ts.URL, st.ID)
				if err != nil {
					return fmt.Errorf("stream %d: %w", i, err)
				}
				if len(types) == 0 {
					return fmt.Errorf("stream %d: empty", i)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	// Every job is terminal; the dedup pair rendered identical bytes.
	for i, id := range ids {
		resp, body := getBody(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %s", id, resp.Status)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s (client %d) not terminal: %s", id, i, st.State)
		}
	}
	r0, text0 := getBody(t, ts.URL+"/v1/jobs/"+ids[0]+"/tables")
	r1, text1 := getBody(t, ts.URL+"/v1/jobs/"+ids[1]+"/tables")
	if r0.StatusCode != http.StatusOK || r1.StatusCode != http.StatusOK {
		t.Fatalf("tables: %s / %s", r0.Status, r1.Status)
	}
	if !bytes.Equal(text0, text1) {
		t.Fatalf("dedup pair rendered different tables")
	}

	// The rest of the read surface answers on a completed job.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+ids[0]+"/tables?format=csv"); resp.StatusCode != http.StatusOK {
		t.Fatalf("tables csv: %s", resp.Status)
	}
	if resp, body := getBody(t, ts.URL+"/v1/jobs/"+ids[0]+"/tables?format=json"); resp.StatusCode != http.StatusOK ||
		!bytes.Contains(body, []byte("hifi_serve_tables_v1")) {
		t.Fatalf("tables json: %s: %s", resp.Status, body)
	}
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+ids[0]+"/scorecard"); resp.StatusCode != http.StatusOK {
		t.Fatalf("scorecard: %s", resp.Status)
	}
	if resp, body := getBody(t, ts.URL+"/v1/jobs"); resp.StatusCode != http.StatusOK ||
		!bytes.Contains(body, []byte(ids[0])) {
		t.Fatalf("job list: %s: %s", resp.Status, body)
	}
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if resp, body := getBody(t, ts.URL+"/metrics"); resp.StatusCode != http.StatusOK ||
		!bytes.Contains(body, []byte("hifi_serve_jobs_submitted_total")) {
		t.Fatalf("metrics: %s: %s", resp.Status, body)
	}
}

func TestHTTPAdmissionStatusCodes(t *testing.T) {
	opts := testOptions(t)
	opts.Queue = 1
	opts.RequireToken = true
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	release := closeOnce(t, hold)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	auth := map[string]string{"Authorization": "Bearer tok-a"}

	// 401: no token on a require-token server.
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300}`, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous: %s, want 401", resp.Status)
	}
	// 400: invalid spec. The body carries the spec's own error, the one
	// the CLIs exit 2 with for the same values. The last plan scales to
	// an infinite intensity.
	for _, bad := range []Spec{{Run: []string{"fig99"}}, {Accesses: -1}, {MCTrials: -5}, {
		Run:            []string{"fig10"},
		FaultPlan:      json.RawMessage(`{"injectors":[{"kind":"stuck","period":100,"intensity":1e308}]}`),
		FaultIntensity: 10,
	}} {
		_, want := bad.Normalize()
		enc, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/jobs", string(enc), auth)
		var e struct{ Error string }
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || want == nil || e.Error != want.Error() {
			t.Fatalf("bad spec %s: %s %s, want 400 with %v", enc, resp.Status, body, want)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"nope":1}`, auth); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s, want 400", resp.Status)
	}
	// 202 fills the queue (held runners never dequeue).
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300}`, auth)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %s: %s", resp.Status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// 409: tables before the job is done.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/tables"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("early tables: %s, want 409", resp.Status)
	}
	// 429 + Retry-After: queue full.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300,"seed":2}`, auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queue-full 429 without Retry-After")
	}
	// 404: unknown job.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/j9999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s, want 404", resp.Status)
	}

	// 503 while draining.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	}()
	for {
		if _, _, err := srv.Submit(quickSpec(), "tok-a"); errors.Is(err, ErrDraining) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300,"seed":3}`, auth)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: %s, want 503", resp.Status)
	}
	release()
	<-drained
}

func TestHTTPQuotaRetryAfterHeader(t *testing.T) {
	opts := testOptions(t)
	opts.Rate = 0.25
	opts.Burst = 1
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	auth := map[string]string{"X-API-Key": "key-1"}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300}`, auth); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %s: %s", resp.Status, body)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"run":["fig14"],"scaled":true,"accesses":300,"seed":2}`, auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("quota 429 without Retry-After")
	}
}

// readStream reads an SSE stream to EOF and returns the ids and event
// types of its frames, in order.
func readStream(body io.Reader) ([]uint64, []events.Type, error) {
	var ids []uint64
	var types []events.Type
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return ids, types, err
			}
			ids = append(ids, id)
		} else if v, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, events.Type(v))
		}
	}
	return ids, types, sc.Err()
}

// pipeWriter is a ResponseWriter over an io.Pipe: each write blocks
// until the test reads it, like a client that has stopped reading.
type pipeWriter struct {
	*io.PipeWriter
	hdr http.Header
}

func (p pipeWriter) Header() http.Header { return p.hdr }
func (p pipeWriter) WriteHeader(int)     {}
func (p pipeWriter) Flush()              {}

// A client that opens a warm job's stream and then reads nothing until
// the job is done gets every event of the job on that one connection:
// ids 1..N once each, N past any per-reader buffer, the terminal event
// last and EOF right after it. A restored job's stream ends after the
// handshake.
func TestJobStreamDeliversEveryEventToALateReader(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	release := closeOnce(t, hold)

	spec := Spec{Run: []string{"fig10", "fig11", "fig14"}, Scaled: true, Accesses: 300}
	cold, _, err := srv.Submit(spec, "c")
	if err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{}
	waitDone(t, cold)
	warm, deduped, err := srv.Submit(spec, "c")
	if err != nil || deduped {
		t.Fatalf("resubmission: deduped=%v err=%v", deduped, err)
	}

	pr, pw := io.Pipe()
	defer func() { _ = pr.Close() }()
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+warm.ID+"/events", nil)
		srv.Handler().ServeHTTP(pipeWriter{pw, http.Header{}}, req)
		_ = pw.Close()
	}()
	br := bufio.NewReader(pr)
	if hs, err := br.ReadString('\n'); err != nil || hs != ": "+events.SchemaV1+"\n" {
		t.Fatalf("handshake = %q, %v", hs, err)
	}
	hold <- struct{}{}
	waitDone(t, warm)
	ids, types, err := readStream(br)
	if err != nil {
		t.Fatalf("reading the stream: %v", err)
	}
	n := warm.Bus.Seq()
	if n <= 256 {
		t.Fatalf("warm job emitted %d events; the test needs more than 256", n)
	}
	if st := warm.Status(); st.State != StateDone || st.Engine.Executed != 0 {
		t.Fatalf("warm job ended %s with %d executed, want done with 0", st.State, st.Engine.Executed)
	}
	if uint64(len(ids)) != n || len(types) != len(ids) {
		t.Fatalf("stream carried %d ids and %d types, job emitted %d events", len(ids), len(types), n)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("frame %d has id %d, want %d", i, id, i+1)
		}
	}
	if last := types[len(types)-1]; last != events.ServeJobFinished {
		t.Fatalf("stream ends with %s, want %s", last, events.ServeJobFinished)
	}

	release()
	waitIndexed(t, srv, warm)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	opts2 := testOptions(t)
	opts2.CacheDir = opts.CacheDir
	srv2 := newTestServer(t, opts2)
	srv2.Resume()
	if j, ok := srv2.Job(warm.ID); !ok || !j.Status().Restored {
		t.Fatalf("job %s not restored after the restart", warm.ID)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, body := getBody(t, ts2.URL+"/v1/jobs/"+warm.ID+"/events")
	if want := ": " + events.SchemaV1 + "\n\n"; resp2.StatusCode != http.StatusOK || string(body) != want {
		t.Fatalf("restored job stream = %s %q, want 200 %q", resp2.Status, body, want)
	}
}
