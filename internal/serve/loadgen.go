// The load generator: a client-side benchmark for a running mpicollserve
// instance. Workers replay a bounded pool of instances (so the server's
// selection cache gets realistic re-use), and the run is summarized as
// QPS + latency quantiles in a JSON report (BENCH_serve.json in CI).

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpicollpred/internal/sim"
)

// LoadgenOptions configures a load-generation run.
type LoadgenOptions struct {
	// URLs are the base URLs to drive (e.g. "http://127.0.0.1:8080"; at
	// least one). Workers are spread round-robin over them, so several
	// URLs drive a whole fleet (replicas directly, or several routers).
	URLs []string
	// Model names the model to query ("" works for single-model servers).
	Model string
	// Duration is how long to generate load (default 5s).
	Duration time.Duration
	// Workers is the number of concurrent client goroutines (default 8).
	Workers int
	// Seed keys the deterministic instance sequence.
	Seed uint64
	// Batch switches the workers from /v1/select to /v1/batch, posting this
	// many instances per request (0 keeps the single-select mode).
	Batch int
	// Retries is how many times a transient failure (dial error, connection
	// reset, 5xx from a gateway) is retried with jittered exponential
	// backoff before it counts as a hard error (default 3; negative
	// disables retries).
	Retries int
	// Nodes/PPNs/Msizes form the instance pool workers draw from. The pool
	// is deliberately small: real tuning traffic repeats the same instances,
	// which is what the selection cache exists for.
	Nodes  []int
	PPNs   []int
	Msizes []int64
	// ShiftAt, when > 0, switches workers to the Shift* instance pool once
	// the run's global request counter passes it — a mid-run change in the
	// traffic distribution, used by drift experiments to move load onto
	// grid cells whose models have gone stale. A Shift* field left empty
	// falls back to the corresponding base pool, and shifted instances must
	// stay inside the served models' training envelope or the shift
	// measures guardrail fallbacks, not model drift.
	ShiftAt     int64
	ShiftNodes  []int
	ShiftPPNs   []int
	ShiftMsizes []int64
}

// retryBase is the backoff unit: retry k (from 0) sleeps
// retryBase<<k plus up to one retryBase of jitter.
const retryBase = 5 * time.Millisecond

// LoadgenReport summarizes a run; it is what BENCH_serve.json holds. In
// batch mode (BatchSize > 0) Requests counts round trips, Instances counts
// tuning decisions, and latencies are per round trip.
type LoadgenReport struct {
	URL             string   `json:"url"`
	Targets         []string `json:"targets,omitempty"`
	Model           string   `json:"model"`
	Workers         int      `json:"workers"`
	BatchSize       int      `json:"batch_size,omitempty"`
	DurationSeconds float64  `json:"duration_seconds"`
	Requests        int64    `json:"requests"`
	Instances       int64    `json:"instances"`
	Errors          int64    `json:"errors"`
	Retries         int64    `json:"retries"`
	CachedHits      int64    `json:"cached_hits"`
	CacheHitRatio   float64  `json:"cache_hit_ratio"`
	Fallbacks       int64    `json:"fallbacks"`
	QPS             float64  `json:"qps"`
	InstancesPerSec float64  `json:"instances_per_sec"`
	LatencyP50Us    float64  `json:"latency_p50_us"`
	LatencyP90Us    float64  `json:"latency_p90_us"`
	LatencyP99Us    float64  `json:"latency_p99_us"`
	LatencyMaxUs    float64  `json:"latency_max_us"`
	// ShiftAt / ShiftedRequests record a mid-run pool shift: the request
	// count the shift was armed at and how many requests drew from the
	// shifted pool.
	ShiftAt         int64 `json:"shift_at,omitempty"`
	ShiftedRequests int64 `json:"shifted_requests,omitempty"`
	// Fleet embeds the router's /fleet/status (retry/hedge/breaker counters
	// and per-replica state) when the first target serves one — the
	// aggregate BENCH_serve.json then carries the fleet's own accounting
	// next to the client-side numbers.
	Fleet json.RawMessage `json:"fleet,omitempty"`
}

func (o *LoadgenOptions) defaults() {
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if len(o.Nodes) == 0 {
		o.Nodes = []int{2, 4, 8, 16}
	}
	if len(o.PPNs) == 0 {
		o.PPNs = []int{4, 8}
	}
	if len(o.Msizes) == 0 {
		o.Msizes = []int64{64, 1024, 16384, 262144}
	}
	if o.ShiftAt > 0 {
		if len(o.ShiftNodes) == 0 {
			o.ShiftNodes = o.Nodes
		}
		if len(o.ShiftPPNs) == 0 {
			o.ShiftPPNs = o.PPNs
		}
		if len(o.ShiftMsizes) == 0 {
			o.ShiftMsizes = o.Msizes
		}
	}
}

// loadgenWorker is one client goroutine's tally.
type loadgenWorker struct {
	requests  int64
	instances int64
	errors    int64
	retries   int64
	cached    int64
	fallbacks int64
	shifted   int64
	latencies []float64 // seconds
}

// transientErr marks a failure worth retrying: the request may never have
// reached a healthy replica (dial refused, connection reset mid-response,
// or a gateway 5xx), so trying again is meaningful — unlike a 4xx, which
// would fail identically every time.
type transientErr struct{ err error }

func (e transientErr) Error() string { return e.err.Error() }
func (e transientErr) Unwrap() error { return e.err }

// transientStatus reports whether an HTTP status signals a retryable
// server/gateway condition rather than a caller mistake.
func transientStatus(code int) bool {
	switch code {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Loadgen runs the load generator against a live server and returns the
// aggregated report. Transport or non-200 responses count as errors; the
// first of them is also returned as a sample so smoke tests fail loudly
// rather than reporting a run that was 100% errors. ctx cancellation stops
// the workers at their next request boundary and is threaded into every
// outbound request, so an aborted run leaves nothing in flight.
func Loadgen(ctx context.Context, opts LoadgenOptions) (LoadgenReport, error) {
	if len(opts.URLs) == 0 {
		return LoadgenReport{}, errors.New("serve: loadgen needs at least one target URL")
	}
	opts.defaults()
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        opts.Workers * 2,
			MaxIdleConnsPerHost: opts.Workers * 2,
		},
		Timeout: 10 * time.Second,
	}
	defer client.CloseIdleConnections()

	deadline := time.Now().Add(opts.Duration)
	workers := make([]loadgenWorker, opts.Workers)
	var reqCount atomic.Int64 // global request counter driving the pool shift
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for wi := 0; wi < opts.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := &workers[wi]
			base := opts.URLs[wi%len(opts.URLs)]
			rng := sim.NewRNG(sim.Seed(opts.Seed, uint64(wi)))
			nodes, ppns, msizes := opts.Nodes, opts.PPNs, opts.Msizes
			draw := func() InstanceRequest {
				return InstanceRequest{
					Nodes: nodes[rng.Intn(len(nodes))],
					PPN:   ppns[rng.Intn(len(ppns))],
					Msize: msizes[rng.Intn(len(msizes))],
				}
			}
			for seq := 0; ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				if opts.ShiftAt > 0 && reqCount.Add(1) > opts.ShiftAt {
					nodes, ppns, msizes = opts.ShiftNodes, opts.ShiftPPNs, opts.ShiftMsizes
					w.shifted++
				}
				// Propagate a worker-scoped request id so every audit line
				// and trace of this run points back at its generator.
				reqID := fmt.Sprintf("lg%d-w%d-%d", opts.Seed, wi, seq)
				var cached, fallbacks, instances int64
				var op func() error
				if opts.Batch > 0 {
					// One batch draws its instances once; retries repost the
					// identical batch, keeping the replayed traffic stable.
					instances = int64(opts.Batch)
					breq := BatchRequest{Model: opts.Model, Instances: make([]InstanceRequest, opts.Batch)}
					for i := range breq.Instances {
						breq.Instances[i] = draw()
					}
					op = func() error {
						var err error
						cached, fallbacks, err = doBatch(ctx, client, base, reqID, breq)
						return err
					}
				} else {
					instances = 1
					in := draw()
					url := fmt.Sprintf("%s/v1/select?model=%s&nodes=%d&ppn=%d&msize=%d",
						base, opts.Model, in.Nodes, in.PPN, in.Msize)
					op = func() error {
						hit, fb, err := doSelect(ctx, client, url, reqID)
						cached, fallbacks = 0, 0
						if hit {
							cached = 1
						}
						if fb {
							fallbacks = 1
						}
						return err
					}
				}
				t0 := time.Now()
				err := op()
				// Transient failures (dial refused, reset, gateway 5xx) are
				// retried with jittered exponential backoff: under a fleet,
				// a replica dying mid-run must not surface to the client.
				for attempt := 0; err != nil && attempt < opts.Retries; attempt++ {
					var te transientErr
					if !errors.As(err, &te) {
						break
					}
					w.retries++
					backoff := retryBase << attempt
					backoff += time.Duration(rng.Float64() * float64(retryBase))
					time.Sleep(backoff)
					err = op()
				}
				w.latencies = append(w.latencies, time.Since(t0).Seconds())
				w.requests++
				w.instances += instances
				if err != nil {
					w.errors++
					e := err
					firstErr.CompareAndSwap(nil, &e)
					continue
				}
				w.cached += cached
				w.fallbacks += fallbacks
			}
		}(wi)
	}
	wg.Wait()

	rep := LoadgenReport{URL: opts.URLs[0], Model: opts.Model, Workers: opts.Workers,
		BatchSize: opts.Batch, DurationSeconds: opts.Duration.Seconds()}
	if len(opts.URLs) > 1 {
		rep.Targets = opts.URLs
	}
	var all []float64
	for i := range workers {
		rep.Requests += workers[i].requests
		rep.Instances += workers[i].instances
		rep.Errors += workers[i].errors
		rep.Retries += workers[i].retries
		rep.CachedHits += workers[i].cached
		rep.Fallbacks += workers[i].fallbacks
		rep.ShiftedRequests += workers[i].shifted
		all = append(all, workers[i].latencies...)
	}
	rep.ShiftAt = opts.ShiftAt
	if rep.Instances > 0 {
		rep.CacheHitRatio = float64(rep.CachedHits) / float64(rep.Instances)
	}
	if rep.DurationSeconds > 0 {
		rep.QPS = float64(rep.Requests) / rep.DurationSeconds
		rep.InstancesPerSec = float64(rep.Instances) / rep.DurationSeconds
	}
	sort.Float64s(all)
	rep.LatencyP50Us = quantileUs(all, 0.50)
	rep.LatencyP90Us = quantileUs(all, 0.90)
	rep.LatencyP99Us = quantileUs(all, 0.99)
	if len(all) > 0 {
		rep.LatencyMaxUs = all[len(all)-1] * 1e6
	}
	rep.Fleet = fetchFleetStatus(ctx, client, opts.URLs[0])
	if p := firstErr.Load(); p != nil {
		return rep, fmt.Errorf("serve: loadgen saw %d errors, first: %w", rep.Errors, *p)
	}
	return rep, nil
}

// fetchFleetStatus embeds the router's own accounting into the report when
// the first target is a fleet router; replicas (404 here) stay unadorned.
func fetchFleetStatus(ctx context.Context, client *http.Client, base string) json.RawMessage {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/fleet/status", nil)
	if err != nil {
		return nil
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || !json.Valid(data) {
		return nil
	}
	return json.RawMessage(data)
}

// doSelect issues one /v1/select and reports whether the answer was cached
// and whether it was a fallback. Transport failures and retryable statuses
// come back wrapped as transientErr.
func doSelect(ctx context.Context, client *http.Client, url, reqID string) (cached, fallback bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, false, err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := client.Do(req)
	if err != nil {
		return false, false, transientErr{err}
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("status %d: %s", resp.StatusCode, body)
		if transientStatus(resp.StatusCode) {
			return false, false, transientErr{err}
		}
		return false, false, err
	}
	if echo := resp.Header.Get("X-Request-Id"); echo != reqID {
		return false, false, fmt.Errorf("request id not propagated: sent %q, got %q", reqID, echo)
	}
	var sr SelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return false, false, err
	}
	return sr.Cached, sr.Fallback, nil
}

// doBatch posts one /v1/batch and returns how many of its entries were
// answered from the cache and how many fell back. Any per-entry error
// counts as a request error: the pool only draws valid instances, so an
// entry-level failure means the server mishandled the batch. Transport
// failures and retryable statuses come back wrapped as transientErr.
func doBatch(ctx context.Context, client *http.Client, baseURL, reqID string, req BatchRequest) (cached, fallbacks int64, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", reqID)
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, 0, transientErr{err}
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("status %d: %s", resp.StatusCode, msg)
		if transientStatus(resp.StatusCode) {
			return 0, 0, transientErr{err}
		}
		return 0, 0, err
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return 0, 0, transientErr{err}
	}
	n := len(req.Instances)
	if len(br.Results) != n {
		return 0, 0, fmt.Errorf("batch of %d answered with %d results", n, len(br.Results))
	}
	for i, res := range br.Results {
		if res.Error != "" {
			return cached, fallbacks, fmt.Errorf("batch entry %d: %s", i, res.Error)
		}
		if res.InstanceRequest != req.Instances[i] {
			return cached, fallbacks, fmt.Errorf("batch entry %d echoes %+v, sent %+v", i, res.InstanceRequest, req.Instances[i])
		}
		if res.Cached {
			cached++
		}
		if res.Fallback {
			fallbacks++
		}
	}
	return cached, fallbacks, nil
}

// quantileUs returns the q-th quantile of sorted seconds, in microseconds.
func quantileUs(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i] * 1e6
}

// WriteFile writes the report as indented JSON, atomically and durably: the
// tmp file is synced and closed before the rename, and removed on failure.
func (r LoadgenReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
