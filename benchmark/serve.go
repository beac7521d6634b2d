package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/floats"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/serve"
	"mpicollpred/internal/sim"
)

// The serve workloads drive an in-process tuning server — serve.New with
// mpicollserve's defaults (65536-entry selection cache, no audit log, no
// trace ring) — on a 127.0.0.1 listener. It serves a d1 XGBoost selector
// trained on Hydra's full split, written with SaveSnapshot and loaded from
// its path. 2 × GOMAXPROCS keep-alive clients form a closed loop (a tuning
// caller waits for its answer) over the 440-instance Hydra grid, in an
// order the seed sets. One second of untimed warm-up precedes the timed
// phase.
//
//   - serve_select: /v1/select. After warm-up every instance is cached, so
//     HTTP, JSON and the selection cache do the work.
//   - serve_predict: /v1/predict, which is never cached: inference by the
//     models of all 46 selectable configurations, then ranking.
type serveLoad struct {
	endpoint string // "select" or "predict"

	dir     string // holds the snapshot file; removed by close
	ref     *core.Selector
	srv     *serve.Server
	ln      net.Listener
	served  chan error // Serve's return value
	pool    []serve.InstanceRequest
	urls    []string // the pool's query URLs, in pool order
	samples []served
}

// served is one response kept for verification.
type served struct {
	in   serve.InstanceRequest
	body []byte
}

const (
	// serveClientsPerProc: two callers per processor keep a request queued
	// at the server. With one per processor, latency is dominated by thread
	// wake-ups, whose cost varies more between runs on a shared host: over
	// ten runs on a 2-core container the p50 spread was 0.20 to 0.47 with
	// one per processor, 0.05 to 0.15 with two.
	serveClientsPerProc = 2
	serveWarmup         = time.Second
	// serveSampleEvery: every 64th response of each client is kept and
	// compared with the same query answered in-process.
	serveSampleEvery = 64
	serveModel       = "d1-xgboost"
	// buildDir is the build and scratch directory at the repository root.
	buildDir = ".bench_build"
)

func (s *serveLoad) setup(r *run) error {
	ds, err := readDataset(r.tr, "d1")
	if err != nil {
		return err
	}
	_, set, err := ds.Spec.Resolve()
	if err != nil {
		return err
	}
	split, err := eval.SplitFor(ds.Spec.Machine)
	if err != nil {
		return err
	}
	end := r.tr.start("core.train")
	sel, err := core.Train(ds, set, "xgboost", split.Full)
	end()
	if err != nil {
		return err
	}
	traceFit(r.tr, "xgboost", sel)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(buildDir, "serve-"); err != nil {
		return err
	}
	path := filepath.Join(s.dir, serveModel+".snap")
	end = r.tr.start("snapshot.encode")
	err = sel.SaveSnapshot(path, core.FingerprintFor(ds, "xgboost", split.Full))
	end()
	if err != nil {
		return err
	}
	if info, err := os.Stat(path); err == nil {
		r.tr.add("snapshot.bytes", float64(info.Size()))
	}
	end = r.tr.start("snapshot.decode")
	s.ref, _, err = core.LoadSnapshot(path)
	end()
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Options{SnapshotPaths: []string{path}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv, s.ln, s.served = srv, ln, make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()

	s.pool, s.urls = s.pool[:0], s.urls[:0]
	for _, in := range gridInstances(ds.Spec) {
		s.pool = append(s.pool, serve.InstanceRequest{Nodes: in.Nodes, PPN: in.PPN, Msize: in.Msize})
		s.urls = append(s.urls, fmt.Sprintf("%s/v1/%s?nodes=%d&ppn=%d&msize=%d", s.base(), s.endpoint, in.Nodes, in.PPN, in.Msize))
	}
	resp, err := http.Get(s.base() + "/readyz")
	if err != nil {
		return err
	}
	_ = resp.Body.Close() // only the status matters
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server not ready: status %d", resp.StatusCode)
	}
	return nil
}

func (s *serveLoad) base() string { return "http://" + s.ln.Addr().String() }

// traceFit publishes a trained selector's fit accounting.
func traceFit(tr *tracer, learner string, sel *core.Selector) {
	models := float64(len(sel.Configs()))
	tr.add("core.models", models)
	tr.add("ml.models."+learner, models)
	tr.add("ml.fit_s."+learner, sel.FitWall)
}

// phase is what one closed-loop phase observed.
type phase struct {
	latencies []float64 // seconds, one per request
	failed    int64
	samples   []served
}

func (s *serveLoad) measure(r *run) error {
	clients := make([]*http.Client, serveClientsPerProc*runtime.GOMAXPROCS(0))
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
		defer clients[i].CloseIdleConnections()
	}
	if warm := s.drive(clients, r.seed, 0, serveWarmup); warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, len(warm.latencies))
	}
	runtime.GC()
	r.tr.setTiming(true)
	t0 := time.Now()
	end := r.tr.start("serve.http")
	ph := s.drive(clients, r.seed, 1, r.budget)
	end()
	r.timed = time.Since(t0)
	r.tr.setTiming(false)

	n := int64(len(ph.latencies))
	r.ops, r.rounds = ph.latencies, 1
	r.work, r.failed = n, ph.failed
	s.samples = ph.samples
	r.tr.add("serve.requests", float64(n))
	sorted := sortedCopy(ph.latencies)
	_, beyond := percentile(sorted, 0.99)
	r.notef("%s: %d requests, %d failed, %d checked; p99 has %d samples beyond it",
		s.endpoint, n, ph.failed, len(ph.samples), beyond)
	if r.tr == nil {
		return nil
	}
	return s.layers(r, sorted)
}

// drive runs the closed loop for d: every client sends its next request
// when the previous answer has been read. stream separates the warm-up's
// request sequence from the timed phase's.
func (s *serveLoad) drive(clients []*http.Client, seed, stream uint64, d time.Duration) phase {
	parts := make([]phase, len(clients))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			rng := sim.NewRNG(sim.Seed(seed, uint64(c), stream))
			for seq := 0; time.Now().Before(deadline); seq++ {
				i := rng.Intn(len(s.urls))
				keep := seq%serveSampleEvery == 0
				t0 := time.Now()
				body, err := get(clients[c], s.urls[i], keep)
				p.latencies = append(p.latencies, time.Since(t0).Seconds())
				if err != nil {
					p.failed++
					continue
				}
				if keep {
					p.samples = append(p.samples, served{s.pool[i], body})
				}
			}
		}(c)
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.latencies = append(out.latencies, p.latencies...)
		out.samples = append(out.samples, p.samples...)
		out.failed += p.failed
	}
	return out
}

// get issues one GET and reads the whole body, returning it when keep is
// set. Anything but a 200 is a failure.
func get(c *http.Client, url string, keep bool) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }() // fully read below; nothing to flush
	var body []byte
	if keep || resp.StatusCode != http.StatusOK {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// layers collects the traced run's serve and select metrics: handler
// latency from the server's own /metrics histogram (warm-up included),
// cache counters, fallbacks from /healthz, and in-process Select and
// PredictAll over the whole pool.
func (s *serveLoad) layers(r *run, sorted []float64) error {
	var snap obs.Snapshot
	if err := getJSON(s.base()+"/metrics?format=json", &snap); err != nil {
		return err
	}
	var health serve.HealthResponse
	if err := getJSON(s.base()+"/healthz", &health); err != nil {
		return err
	}
	c50, _ := percentile(sorted, 0.50)
	c99, _ := percentile(sorted, 0.99)
	for _, h := range snap.Histograms {
		if h.Name == "serve_request_seconds" && h.Labels["endpoint"] == s.endpoint {
			r.tr.add("serve.handler_p50_share", h.P50/c50)
			r.tr.add("serve.handler_p99_share", h.P99/c99)
		}
	}
	r.tr.add("serve.p99_over_p50", c99/c50)
	hits, misses, evictions := s.srv.Cache().Stats()
	r.tr.add("serve.cache_hits", float64(hits))
	r.tr.add("serve.cache_misses", float64(misses))
	r.tr.add("serve.cache_evictions", float64(evictions))
	for _, m := range health.Models {
		r.tr.add("core.fallbacks", float64(m.Fallbacks))
	}
	for _, in := range s.pool {
		end := r.tr.start("core.select.xgboost")
		s.ref.Select(in.Nodes, in.PPN, in.Msize)
		end()
		end = r.tr.start("core.predict_all")
		s.ref.PredictAll(in.Nodes, in.PPN, in.Msize)
		end()
	}
	return nil
}

func getJSON(url string, v any) error {
	body, err := get(http.DefaultClient, url, true)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return json.Unmarshal(body, v)
}

// verify compares every kept response with the same query answered by the
// in-process selector decoded from the served snapshot. The pool holds 440
// instances, so each expected answer is computed once.
func (s *serveLoad) verify(r *run) error {
	if len(s.samples) == 0 {
		return fmt.Errorf("no %s response was checked", s.endpoint)
	}
	want := map[serve.InstanceRequest][]core.Prediction{}
	for _, sm := range s.samples {
		w, ok := want[sm.in]
		if !ok {
			w = expected(s.ref, s.endpoint, sm.in)
			want[sm.in] = w
		}
		if err := checkServed(s.endpoint, sm, w); err != nil {
			return err
		}
	}
	return nil
}

// expected is ref's answer to one query: the selection, or the ranking.
func expected(ref *core.Selector, endpoint string, in serve.InstanceRequest) []core.Prediction {
	if endpoint == "select" {
		return []core.Prediction{ref.Select(in.Nodes, in.PPN, in.Msize)}
	}
	return ref.PredictAll(in.Nodes, in.PPN, in.Msize)
}

// checkServed decodes one response and compares it, field for field and
// bit for bit, with the expected decisions.
func checkServed(endpoint string, sm served, want []core.Prediction) error {
	in := sm.in
	var got []serve.Decision
	var echo serve.InstanceRequest
	var model string
	if endpoint == "select" {
		var resp serve.SelectResponse
		if err := json.Unmarshal(sm.body, &resp); err != nil {
			return fmt.Errorf("select %+v: %w", in, err)
		}
		got, echo, model = []serve.Decision{resp.Decision}, resp.InstanceRequest, resp.Model
	} else {
		var resp serve.PredictResponse
		if err := json.Unmarshal(sm.body, &resp); err != nil {
			return fmt.Errorf("predict %+v: %w", in, err)
		}
		got, echo, model = resp.Predictions, resp.InstanceRequest, resp.Model
	}
	if echo != in || model != serveModel {
		return fmt.Errorf("%s %+v: answered %+v from model %q", endpoint, in, echo, model)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s %+v: %d decisions, want %d", endpoint, in, len(got), len(want))
	}
	for i := range want {
		if !sameDecision(got[i], want[i]) {
			return fmt.Errorf("%s %+v: decision %d is %+v, in-process %+v", endpoint, in, i, got[i], want[i])
		}
	}
	return nil
}

// sameDecision reports whether a served decision encodes p exactly; the
// predicted time is null exactly when p's is not finite.
func sameDecision(d serve.Decision, p core.Prediction) bool {
	if d.ConfigID != p.ConfigID || d.AlgID != p.AlgID || d.Label != p.Label ||
		d.Fallback != p.Fallback || d.FallbackReason != p.FallbackReason {
		return false
	}
	finite := !math.IsNaN(p.Predicted) && !math.IsInf(p.Predicted, 0)
	if d.PredictedSeconds == nil {
		return !finite
	}
	return finite && floats.Exact(*d.PredictedSeconds, p.Predicted)
}

// close stops the server, waits for it to return, and removes the snapshot.
func (s *serveLoad) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // the listener is closed below either way
		cancel()
		_ = s.ln.Close() // already closed by a successful Shutdown
		<-s.served
		s.srv = nil
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch only
		s.dir = ""
	}
}
