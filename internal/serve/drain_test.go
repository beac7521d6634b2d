package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpicollpred/internal/audit"
)

func TestReadyzLifecycle(t *testing.T) {
	_, knn, _ := testModels(t)
	s, err := New(Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	// No models loaded yet: alive but not ready.
	var hr HealthResponse
	getJSON(t, s.Handler(), "/healthz", http.StatusOK, &hr)
	if hr.Ready {
		t.Fatal("/healthz reports ready before any snapshot generation")
	}
	var rr ReadyResponse
	getJSON(t, s.Handler(), "/readyz", http.StatusServiceUnavailable, &rr)
	if rr.Reason != "no models loaded" {
		t.Fatalf("readyz reason %q, want %q", rr.Reason, "no models loaded")
	}

	if err := s.Registry().Install(knn); err != nil {
		t.Fatal(err)
	}
	getJSON(t, s.Handler(), "/readyz", http.StatusOK, &rr)
	if rr.Status != "ready" || rr.Generation == 0 {
		t.Fatalf("readyz %+v after install, want ready with a generation", rr)
	}

	// Draining flips readiness but not liveness.
	s.BeginDrain()
	getJSON(t, s.Handler(), "/readyz", http.StatusServiceUnavailable, &rr)
	if rr.Reason != "draining" {
		t.Fatalf("readyz reason %q while draining, want %q", rr.Reason, "draining")
	}
	getJSON(t, s.Handler(), "/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" {
		t.Fatalf("healthz status %q while draining, want ok (liveness is separate)", hr.Status)
	}
}

func TestBodyLimit413(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)

	// A syntactically valid request padded past the 1 MiB body cap.
	pad := strings.Repeat("x", maxBodyBytes+1024)
	body := []byte(`{"model":"` + pad + `","instances":[{"nodes":4,"ppn":4,"msize":1024}]}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch got %d, want 413: %s", rec.Code, rec.Body)
	}

	// The overflow is visible on /metrics.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "serve_body_overflow_total") {
		t.Fatal("/metrics does not report serve_body_overflow_total after a 413")
	}

	// A same-sized select body is rejected too, and normal requests still work.
	req = httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body))
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized select got %d, want 413", rec.Code)
	}
	var sr SelectResponse
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=1024", http.StatusOK, &sr)
	if sr.Label == "" {
		t.Fatal("select broken after body-limit rejections")
	}
}

// TestGracefulDrain is the acceptance test for the drain satellite: a
// SIGTERM-style drain (BeginDrain + Shutdown) while a /v1/batch request is
// in flight must flip /readyz immediately, let the batch finish with a full
// 200 response, and lose zero audit lines.
func TestGracefulDrain(t *testing.T) {
	_, knn, _ := testModels(t)
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	alog, err := audit.NewLogger(auditPath, audit.LoggerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The middleware holds the batch at the door until the test has begun
	// the drain, so "drain with a request in flight" is a certainty, not a
	// race the test hopes to win.
	started := make(chan struct{})
	release := make(chan struct{})
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/batch" {
				close(started)
				<-release
			}
			next.ServeHTTP(w, r)
		})
	}
	s, err := New(Options{CacheSize: -1, Audit: alog, Middleware: mw})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Install(knn); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	const instances = 200
	var breq BatchRequest
	for i := 0; i < instances; i++ {
		breq.Instances = append(breq.Instances,
			InstanceRequest{Nodes: 2 + i%5, PPN: 1 + 3*(i%2), Msize: 1024})
	}
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *http.Response
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
		resCh <- result{resp, err}
	}()

	<-started // the batch is now in flight
	s.BeginDrain()

	// Readiness flips at once (the listener is still up until Shutdown).
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rr.Reason != "draining" {
		t.Fatalf("readyz during drain: %d %+v, want 503/draining", resp.StatusCode, rr)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	close(release)

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", res.err)
	}
	data, err := io.ReadAll(res.resp.Body)
	_ = res.resp.Body.Close()
	if err != nil {
		t.Fatalf("reading drained batch response: %v", err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight batch got %d during drain, want 200: %s", res.resp.StatusCode, data)
	}
	var bresp BatchResponse
	if err := json.Unmarshal(data, &bresp); err != nil {
		t.Fatalf("drained batch response is not valid JSON: %v", err)
	}
	if len(bresp.Results) != instances {
		t.Fatalf("drained batch returned %d results, want %d", len(bresp.Results), instances)
	}
	for i, r := range bresp.Results {
		if r.Error != "" || r.Label == "" {
			t.Fatalf("result %d incomplete after drain: %+v", i, r)
		}
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Every decision of the in-flight batch must be on disk: zero lost
	// audit lines.
	if err := alog.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt audit line %q: %v", line, err)
		}
		lines++
	}
	if lines != instances {
		t.Fatalf("audit log holds %d lines after drain, want %d (lost %d)",
			lines, instances, instances-lines)
	}
}

func TestLoadgenRetriesTransient(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)

	// The first few requests fail with 503; retries must absorb them.
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rep, err := Loadgen(context.Background(), LoadgenOptions{
		URLs:     []string{flaky.URL},
		Duration: 200 * time.Millisecond,
		Workers:  2,
		Seed:     7,
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors despite retries, want 0", rep.Errors)
	}
	if rep.Retries == 0 {
		t.Fatal("transient 503s produced no retries")
	}
}
