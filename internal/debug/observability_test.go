package debug_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"golisa/internal/bundle"
	"golisa/internal/core"
	"golisa/internal/debug"
	"golisa/internal/fleet"
	"golisa/internal/otrace"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// syncBuffer is a goroutine-safe byte buffer for capturing the access
// log (the middleware writes from handler goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHealthzReadyz drives the probe lifecycle: liveness is always up,
// readiness flips once the simulation reaches its first step boundary —
// including while it sits paused there, since paused is a controlled
// state, not a wedged one.
func TestHealthzReadyz(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	srv := debug.NewServer(s, debug.Options{StartPaused: true})
	s.SetObserver(srv.Attach())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Before the simulation starts: alive, not ready.
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz before run = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before run = %d, want 503", got)
	}

	// Start the run; it pauses at step 0 (StartPaused). Readiness must
	// flip while the gate holds the simulation paused — /readyz must not
	// block on the funnel.
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(50_000)
		srv.Finish()
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for status("/readyz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never became ready while paused at step 0")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz while paused = %d, want 200", got)
	}

	// Run to completion; a finished simulation stays ready.
	srv.Controller().Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after finish = %d, want 200", got)
	}
}

// TestTraceMiddleware checks the per-request trace contract: a valid
// client traceparent is joined (same TraceID, fresh SpanID), the context
// is echoed as a response header, and the access log records one line
// with the request's ids.
func TestTraceMiddleware(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	srv := debug.NewServer(s, debug.Options{
		Log: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	srv.Finish() // serve against final state; no run goroutine needed
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	echo := resp.Header.Get("traceparent")
	ctx, err := otrace.Parse(echo)
	if err != nil {
		t.Fatalf("response traceparent %q does not parse: %v", echo, err)
	}
	if got := ctx.TraceID.String(); got != "0123456789abcdef0123456789abcdef" {
		t.Errorf("response TraceID = %s, want the client's", got)
	}
	if ctx.SpanID.String() == "00f067aa0ba902b7" {
		t.Error("response SpanID echoes the client's span; want a fresh per-request span")
	}

	// One access-log line, carrying the same ids.
	deadline := time.Now().Add(5 * time.Second)
	for logBuf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var line struct {
		Msg       string `json:"msg"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(logBuf.String(), "\n", 2)[0]), &line); err != nil {
		t.Fatalf("access log %q is not JSON: %v", logBuf.String(), err)
	}
	if line.Msg != "http request" || line.Method != http.MethodGet || line.Path != "/state" || line.Status != http.StatusOK {
		t.Errorf("access log line = %+v", line)
	}
	if line.TraceID != ctx.TraceID.String() || line.RequestID != ctx.SpanID.String() {
		t.Errorf("access log ids (%s, %s) != response traceparent ids (%s, %s)",
			line.TraceID, line.RequestID, ctx.TraceID, ctx.SpanID)
	}

	// An invalid client traceparent still yields a valid fresh context.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/state", nil)
	req2.Header.Set("traceparent", "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if _, err := otrace.Parse(resp2.Header.Get("traceparent")); err != nil {
		t.Errorf("fresh traceparent %q does not parse: %v", resp2.Header.Get("traceparent"), err)
	}
}

// TestBatchTracePropagation is the end-to-end identity check over HTTP:
// one client TraceID, sent as a traceparent header, must surface in the
// /batch summary, in every job result, and in every NDJSON record of
// /batch/stream.
func TestBatchTracePropagation(t *testing.T) {
	ts, _ := newBatchServer(t)
	const wantTrace = "cafebabecafebabecafebabecafebabe"
	const parent = "00-" + wantTrace + "-1122334455667788-01"

	post := func(path string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path,
			strings.NewReader(countdownManifest(t, 2)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", parent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// /batch: summary and every job share the client's TraceID.
	resp := post("/batch")
	var sum fleet.Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sum.TraceID != wantTrace {
		t.Errorf("summary TraceID = %s, want the client's %s", sum.TraceID, wantTrace)
	}
	spans := map[string]bool{}
	for _, r := range sum.Results {
		if r.TraceID != wantTrace {
			t.Errorf("job %s TraceID = %s, want %s", r.Name, r.TraceID, wantTrace)
		}
		if len(r.SpanID) != 16 || spans[r.SpanID] {
			t.Errorf("job %s SpanID = %q, want 16 hex chars unique per job", r.Name, r.SpanID)
		}
		spans[r.SpanID] = true
	}

	// /batch/stream: every NDJSON record carries the same TraceID.
	resp = post("/batch/stream")
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	records := 0
	for sc.Scan() {
		var rec fleet.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		records++
		switch {
		case rec.Result != nil:
			if rec.Result.TraceID != wantTrace {
				t.Errorf("stream job record TraceID = %s, want %s", rec.Result.TraceID, wantTrace)
			}
		case rec.Summary != nil:
			if rec.Summary.TraceID != wantTrace {
				t.Errorf("stream summary TraceID = %s, want %s", rec.Summary.TraceID, wantTrace)
			}
		default:
			t.Errorf("record %q has neither result nor summary", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if records != 3 {
		t.Errorf("stream returned %d records, want 2 jobs + 1 summary", records)
	}
}

// TestBundleEndpoint checks GET /bundle streams a readable archive from
// the attached source (called under the funnel), and 404s without one.
func TestBundleEndpoint(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	tr := otrace.New("test run")
	srv := debug.NewServer(s, debug.Options{
		Bundle: func() (*bundle.Builder, error) {
			b := bundle.New(bundle.Meta{Tool: "test", TraceID: tr.ID().String()})
			if err := b.AddFunc(bundle.SpansFile, tr.WriteJSON); err != nil {
				return nil, err
			}
			b.Add(bundle.FlightFile, []byte("ring\n"))
			return b, nil
		},
	})
	srv.Finish()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /bundle = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("Content-Type = %q, want application/gzip", ct)
	}
	bn, err := bundle.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Meta.TraceID != tr.ID().String() {
		t.Errorf("bundle TraceID = %s, want %s", bn.Meta.TraceID, tr.ID())
	}
	doc, err := otrace.ReadDoc(bytes.NewReader(bn.Section(bundle.SpansFile)))
	if err != nil {
		t.Fatalf("spans.json: %v", err)
	}
	if doc.TraceID != tr.ID().String() {
		t.Errorf("spans.json TraceID = %s, want %s", doc.TraceID, tr.ID())
	}
	if string(bn.Section(bundle.FlightFile)) != "ring\n" {
		t.Errorf("flight.txt = %q", bn.Section(bundle.FlightFile))
	}

	// Without a source: 404. Wrong method: 405 with Allow.
	bare := httptest.NewServer(debug.NewServer(s, debug.Options{}).Handler())
	defer bare.Close()
	if resp, err := http.Get(bare.URL + "/bundle"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /bundle without source = %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Post(ts.URL+"/bundle", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /bundle = %d, want 405", resp.StatusCode)
	}
}

// TestProcessMetrics checks the runtime self-metrics ride both
// exposition endpoints with HELP-before-TYPE-before-sample ordering.
func TestProcessMetrics(t *testing.T) {
	m, err := core.LoadBuiltin("simple16")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := m.AssembleAndLoad(countdown, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	fm := fleet.NewMetrics()
	srv := debug.NewServer(s, debug.Options{
		Metrics: trace.NewMetrics(),
		Batch:   &fleet.Service{Metrics: fm},
	})
	srv.Finish()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/metrics", "/batch/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		out := string(body)
		for _, fam := range []struct{ name, typ string }{
			{"lisa_process_goroutines", "gauge"},
			{"lisa_process_heap_alloc_bytes", "gauge"},
			{"lisa_process_gc_pause_seconds_total", "counter"},
		} {
			help := strings.Index(out, "# HELP "+fam.name+" ")
			typ := strings.Index(out, "# TYPE "+fam.name+" "+fam.typ)
			sample := strings.Index(out, "\n"+fam.name+" ")
			if help < 0 || typ < 0 || sample < 0 {
				t.Errorf("%s: family %s incomplete (help %d, type %d, sample %d)",
					path, fam.name, help, typ, sample)
				continue
			}
			if !(help < typ && typ < sample) {
				t.Errorf("%s: family %s out of order (help %d, type %d, sample %d)",
					path, fam.name, help, typ, sample)
			}
		}
	}
}
