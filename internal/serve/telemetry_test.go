package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/obs"
)

// telemetryServer builds a server with tracing + auditing on and its own
// metrics registry.
func telemetryServer(t *testing.T, auditPath string, models ...*Model) (*Server, *audit.Logger) {
	t.Helper()
	lg, err := audit.NewLogger(auditPath, audit.LoggerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{CacheSize: 1024,
		Metrics: obs.NewRegistry(), Audit: lg, TraceRing: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Install(models...); err != nil {
		t.Fatal(err)
	}
	return s, lg
}

func TestRequestIDPropagation(t *testing.T) {
	_, knn, _ := testModels(t)
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, lg := telemetryServer(t, path, knn)

	// Caller-provided id echoes back and lands in the audit line.
	req := httptest.NewRequest(http.MethodGet, "/v1/select?nodes=2&ppn=4&msize=1024", nil)
	req.Header.Set("X-Request-Id", "caller-42")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "caller-42" {
		t.Fatalf("echoed id %q, want caller-42", got)
	}

	// Absent id gets assigned — non-empty and still echoed.
	req = httptest.NewRequest(http.MethodGet, "/v1/select?nodes=2&ppn=4&msize=1024", nil)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	assigned := rec.Header().Get("X-Request-Id")
	if assigned == "" {
		t.Fatal("no request id assigned")
	}

	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d audit lines, want 2", len(recs))
	}
	if recs[0].RequestID != "caller-42" || recs[1].RequestID != assigned {
		t.Fatalf("audit ids %q/%q, want caller-42/%s", recs[0].RequestID, recs[1].RequestID, assigned)
	}
	if recs[0].Endpoint != "select" || recs[0].Model != knn.Name {
		t.Fatalf("audit record: %+v", recs[0])
	}
}

func TestTracesEndpointRecordsSpanTree(t *testing.T) {
	_, knn, _ := testModels(t)
	s, lg := telemetryServer(t, filepath.Join(t.TempDir(), "a.jsonl"), knn)
	defer func() { _ = lg.Close() }()

	// First select misses the cache (argmin runs), second hits.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/select?nodes=2&ppn=4&msize=1024", nil)
		req.Header.Set("X-Request-Id", fmt.Sprintf("t-%d", i))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}

	var ring struct {
		Capacity int                `json:"capacity"`
		Stored   int                `json:"stored"`
		Traces   []obs.RequestTrace `json:"traces"`
	}
	getJSON(t, s.Handler(), "/debug/traces", http.StatusOK, &ring)
	// The two selects are stored; the /debug/traces request itself completes
	// after its own snapshot, so it is not in its own answer.
	if ring.Capacity != 64 || ring.Stored != 2 {
		t.Fatalf("ring capacity=%d stored=%d, want 64/2", ring.Capacity, ring.Stored)
	}
	spanNames := func(rt obs.RequestTrace) map[string]bool {
		names := map[string]bool{}
		for _, sp := range rt.Spans {
			names[sp.Name] = true
		}
		return names
	}
	miss, hit := ring.Traces[0], ring.Traces[1]
	if miss.RequestID != "t-0" || hit.RequestID != "t-1" {
		t.Fatalf("trace order: %s, %s", miss.RequestID, hit.RequestID)
	}
	for _, want := range []string{"select", "parse", "resolve", "cache", "argmin"} {
		if !spanNames(miss)[want] {
			t.Errorf("miss trace lacks %q span: %+v", want, miss.Spans)
		}
	}
	if spanNames(hit)["argmin"] {
		t.Errorf("cache-hit trace ran the selector: %+v", hit.Spans)
	}
	// The root span is the endpoint, parent -1.
	if miss.Spans[0].Name != "select" || miss.Spans[0].Parent != -1 {
		t.Fatalf("root span: %+v", miss.Spans[0])
	}

	// Chrome export parses and carries the request events.
	req := httptest.NewRequest(http.MethodGet, "/debug/traces?format=chrome", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("empty chrome export")
	}
}

func TestTelemetryEndpointTracksFallbackMonitor(t *testing.T) {
	_, knn, _ := testModels(t)
	s, lg := telemetryServer(t, filepath.Join(t.TempDir(), "a.jsonl"), knn)
	defer func() { _ = lg.Close() }()

	// 24 in-envelope selects, then 24 far-out-of-envelope ones: the fallback
	// EWMA must climb past warm-up into warn or breach.
	for i := 0; i < 24; i++ {
		getJSON(t, s.Handler(), fmt.Sprintf("/v1/select?nodes=2&ppn=4&msize=%d", 1024+i), http.StatusOK, nil)
	}
	for i := 0; i < 24; i++ {
		getJSON(t, s.Handler(), fmt.Sprintf("/v1/select?nodes=2&ppn=4&msize=%d", int64(1)<<30+int64(i)), http.StatusOK, nil)
	}

	var snap TelemetrySnapshot
	getJSON(t, s.Handler(), "/v1/telemetry", http.StatusOK, &snap)
	if len(snap.Models) != 1 || snap.Models[0].Model != knn.Name {
		t.Fatalf("models: %+v", snap.Models)
	}
	m := snap.Models[0]
	if m.Requests != 48 {
		t.Fatalf("requests %d, want 48", m.Requests)
	}
	if m.FallbackLevel == "ok" {
		t.Fatalf("fallback level still ok at rate %.3f after %d fallbacks", m.FallbackRate, m.FallbackEvents)
	}
	if m.EnvelopeLevel == "ok" {
		t.Fatalf("envelope level still ok at rate %.3f", m.EnvelopeRate)
	}
	// Quantile labels are fixed and ordered.
	var labels []string
	for _, q := range m.PredQuantiles {
		labels = append(labels, q.Q)
	}
	if fmt.Sprint(labels) != "[p10 p50 p90 p99]" {
		t.Fatalf("quantile labels %v", labels)
	}
	if m.PredQuantiles[1].V == nil || *m.PredQuantiles[1].V <= 0 {
		t.Fatalf("p50 prediction: %+v", m.PredQuantiles[1])
	}
	// All requests were 200 and fast: both SLO monitors healthy.
	if snap.Availability.Level != "ok" || snap.Availability.Bad != 0 {
		t.Fatalf("availability: %+v", snap.Availability)
	}
	if snap.TracesStored == 0 || snap.TracesTotal == 0 {
		t.Fatalf("trace counters: %+v", snap)
	}

	// The same monitor states appear on /metrics (JSON form).
	req := httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{"serve_model_fallback_level", "serve_model_pred_seconds",
		"serve_slo_availability_burn", "serve_traces_stored"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestAuditHammer is the concurrency contract of the telemetry layer: 8
// clients select continuously while the registry reloads (both via the
// /v1/reload path and a relayed SIGHUP, as mpicollserve wires it) and other
// goroutines read the trace ring and telemetry. Afterwards every audit line
// must parse (no torn writes) and every served decision must appear (no
// lost writes). Run under -race in CI.
func TestAuditHammer(t *testing.T) {
	_, knn, lin := testModels(t)
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	s, lg := telemetryServer(t, path, knn, lin)

	hup := make(chan os.Signal, 4)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	reinstall := func() {
		if err := s.Registry().Install(knn, lin); err != nil {
			t.Errorf("reinstall: %v", err)
		}
	}
	stop := make(chan struct{})
	var relay sync.WaitGroup
	relay.Add(1)
	go func() {
		defer relay.Done()
		for {
			select {
			case <-hup:
				reinstall()
			case <-stop:
				return
			}
		}
	}()

	const clients, perClient = 8, 60
	var served int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			model := knn.Name
			if c%2 == 1 {
				model = lin.Name
			}
			for i := 0; i < perClient; i++ {
				url := fmt.Sprintf("/v1/select?model=%s&nodes=%d&ppn=4&msize=%d",
					model, 2+(i%3)*2, 64<<(i%6))
				req := httptest.NewRequest(http.MethodGet, url, nil)
				req.Header.Set("X-Request-Id", fmt.Sprintf("h%d-%d", c, i))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, rec.Code, rec.Body)
					return
				}
				mu.Lock()
				served++
				mu.Unlock()
				switch i % 20 {
				case 5:
					// Registry churn mid-flight.
					reinstall()
				case 10:
					// SIGHUP path, as the daemon receives it.
					if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
						t.Errorf("kill: %v", err)
					}
				}
			}
		}(c)
	}
	// Concurrent observers of the ring and monitors.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, url := range []string{"/debug/traces", "/v1/telemetry", "/metrics?format=json"} {
				req := httptest.NewRequest(http.MethodGet, url, nil)
				s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			}
		}
	}()
	wg.Wait()
	close(stop)
	relay.Wait()
	<-readDone

	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadLog(path) // strict scan: one torn line fails here
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != served {
		t.Fatalf("audit lines %d != served decisions %d (lost writes)", len(recs), served)
	}
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.RequestID] = true
	}
	if int64(len(ids)) != served {
		t.Fatalf("unique ids %d != served %d", len(ids), served)
	}
	st := lg.Stats()
	if st.Errors != 0 {
		t.Fatalf("logger errors: %d", st.Errors)
	}
}
