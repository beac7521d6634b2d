// The fleet router: the HTTP front tier that makes N replicas look like one
// fast, fault-tolerant server. Routing is consistent-hash-by-instance
// (rendezvous hashing over the query key) so repeated queries land on the
// same replica and its selection cache stays hot; when the hashed owner is
// down, draining, or breaker-open, the request falls to the least-loaded
// healthy replica. Failures are absorbed by bounded retries with jittered
// exponential backoff, tail latency by hedged requests: if the primary has
// not answered within the hedge delay, a second replica races it and the
// first response wins.
//
// Endpoints:
//
//	GET/POST /v1/select    proxied (hashed + hedged)
//	GET/POST /v1/predict   proxied (hashed + hedged)
//	POST     /v1/batch     proxied (least-loaded)
//	GET      /healthz      router liveness + replica summary
//	GET      /readyz       503 unless >= 1 replica is ready
//	GET      /fleet/status replica states + retry/hedge/breaker counters
//	GET/POST /fleet/rollout canary rollout state machine (rollout.go)
//	GET      /metrics      obs registry snapshot
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpicollpred/internal/obs"
	"mpicollpred/internal/sim"
)

// Options configures a Router.
type Options struct {
	// Replicas are the backend base URLs (at least one).
	Replicas []string
	// ProbeInterval is the health-probe period (default 250ms).
	ProbeInterval time.Duration
	// Retries is how many additional replicas a failed request may try
	// (default 2).
	Retries int
	// HedgeAfter launches a hedge request to a second replica when the
	// primary has not answered /v1/select or /v1/predict within this delay
	// (default 25ms; negative disables hedging).
	HedgeAfter time.Duration
	// Seed keys the retry-jitter and rollout-probe RNG streams.
	Seed uint64
	// Log receives router events; nil discards them.
	Log *obs.Logger
	// Metrics is the registry the router reports into (default obs.Default).
	Metrics *obs.Registry
}

func (o *Options) defaults() error {
	if len(o.Replicas) == 0 {
		return errors.New("fleet: at least one replica URL is required")
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 25 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	return nil
}

// Router fronts the replica fleet.
type Router struct {
	opts     Options
	replicas []*Replica
	client   *http.Client
	prober   *prober
	mux      *http.ServeMux
	httpSrv  *http.Server
	log      *obs.Logger
	metrics  *obs.Registry

	reqSeq        atomic.Uint64
	proxied       atomic.Int64 // client requests answered (any status)
	clientErrors  atomic.Int64 // client-visible 5xx / no-replica failures
	retries       atomic.Int64 // extra attempts after a failure
	hedges        atomic.Int64 // hedge requests launched
	hedgeWins     atomic.Int64 // hedges that answered first
	avail         *obs.BurnRate
	rolloutRun    sync.Mutex // held for the duration of one rollout
	rolloutMu     sync.Mutex // guards rolloutStatus
	rolloutStatus RolloutStatus
}

// maxProxyBody caps buffered request bodies (they must be replayable for
// retries and hedges); matches the replicas' own limit.
const maxProxyBody = 1 << 20

// maxResponseBody caps buffered backend responses. It is far larger than
// the request cap — a legitimate /v1/batch answer (10k results with labels
// and predictions) runs to several MiB — and overflowing it fails the
// attempt instead of forwarding a truncated body under a 200.
const maxResponseBody = 32 << 20

// probeTimeout bounds one health-probe round trip.
const probeTimeout = time.Second

// retryBase is the backoff unit between retry attempts: retry k (from 1)
// sleeps retryBase<<(k-1) plus up to one retryBase of seeded jitter.
const retryBase = 5 * time.Millisecond

// attemptTimeout bounds one proxied attempt.
const attemptTimeout = 10 * time.Second

// availabilityWindow sizes the router's client-visible availability burn
// monitor (same objective as the replicas' own monitor).
const availabilityWindow = 512

// New builds a router over the replica URLs. Call Start to begin probing.
func New(opts Options) (*Router, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	rt := &Router{
		opts: opts,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		}},
		log:     opts.Log,
		metrics: opts.Metrics,
		avail:   obs.NewBurnRate(0.999, availabilityWindow),
	}
	rt.rolloutStatus = RolloutStatus{State: RolloutIdle}
	for i, u := range opts.Replicas {
		rt.replicas = append(rt.replicas, &Replica{
			URL:     u,
			idx:     i,
			breaker: NewBreaker(),
		})
	}
	rt.prober = newProber(rt.replicas, rt.client, opts.ProbeInterval)
	rt.mux = http.NewServeMux()
	rt.mux.Handle("/v1/select", rt.proxyHandler("select"))
	rt.mux.Handle("/v1/predict", rt.proxyHandler("predict"))
	rt.mux.Handle("/v1/batch", rt.proxyHandler("batch"))
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/fleet/status", rt.handleStatus)
	rt.mux.HandleFunc("/fleet/rollout", rt.handleRollout)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// Start probes every replica once and launches the background prober.
func (rt *Router) Start() { rt.prober.start() }

// Close stops the prober.
func (rt *Router) Close() {
	rt.prober.close()
	rt.client.CloseIdleConnections()
}

// Handler returns the router's root handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Replicas returns the replica states (shared, live objects).
func (rt *Router) Replicas() []*Replica { return rt.replicas }

// Serve answers on l until Shutdown.
func (rt *Router) Serve(l net.Listener) error {
	rt.httpSrv = &http.Server{
		Handler:           rt.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	err := rt.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests, then stops the prober.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	if rt.httpSrv != nil {
		err = rt.httpSrv.Shutdown(ctx)
	}
	rt.Close()
	return err
}

// instanceKey derives the consistent-hash key for a request: the tuning
// instance (model, nodes, ppn, msize) from the query string or JSON body.
// 0 means "no stable key" (batches, unparseable bodies) — those route
// least-loaded instead.
func instanceKey(r *http.Request, body []byte) uint64 {
	h := fnv.New64a()
	q := r.URL.Query()
	if q.Get("nodes") != "" {
		_, _ = io.WriteString(h, q.Get("model")+"|"+q.Get("nodes")+"|"+q.Get("ppn")+"|"+q.Get("msize"))
		return h.Sum64()
	}
	if len(body) > 0 {
		var in struct {
			Model string `json:"model"`
			Nodes int    `json:"nodes"`
			PPN   int    `json:"ppn"`
			Msize int64  `json:"msize"`
		}
		if json.Unmarshal(body, &in) == nil && in.Nodes > 0 {
			fmt.Fprintf(h, "%s|%d|%d|%d", in.Model, in.Nodes, in.PPN, in.Msize)
			return h.Sum64()
		}
	}
	return 0
}

// rendezvousWeight scores replica r for key: the highest-random-weight
// member owns the key, so each instance has a stable home replica and
// reshuffling on membership change is minimal.
func rendezvousWeight(url string, key uint64) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, url)
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(key >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

// pick orders the routable replicas (ready, not excluded) and returns the
// first one whose breaker admits the request: the key's rendezvous owner
// first, then the rest by ascending load. A nil return means no replica
// can take the request right now. Hedge picks (hedge=true) only consider
// replicas with a closed breaker: a hedge is cancelled whenever the
// primary wins the race, so it must never carry a half-open probe.
func (rt *Router) pick(key uint64, exclude map[int]bool, now time.Time, hedge bool) *Replica {
	candidates := make([]*Replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if exclude[r.idx] || !r.ready.Load() {
			continue
		}
		candidates = append(candidates, r)
	}
	if len(candidates) == 0 {
		return nil
	}
	if key != 0 {
		sort.Slice(candidates, func(i, j int) bool {
			wi := rendezvousWeight(candidates[i].URL, key)
			wj := rendezvousWeight(candidates[j].URL, key)
			if wi != wj {
				return wi > wj
			}
			return candidates[i].idx < candidates[j].idx
		})
		// The owner leads; everyone after it is fallback, cheapest first.
		rest := candidates[1:]
		sort.Slice(rest, func(i, j int) bool {
			li, lj := rest[i].inflight.Load(), rest[j].inflight.Load()
			if li != lj {
				return li < lj
			}
			return rest[i].idx < rest[j].idx
		})
	} else {
		sort.Slice(candidates, func(i, j int) bool {
			li, lj := candidates[i].inflight.Load(), candidates[j].inflight.Load()
			if li != lj {
				return li < lj
			}
			return candidates[i].idx < candidates[j].idx
		})
	}
	for _, r := range candidates {
		if hedge && r.breaker.State() != BreakerClosed {
			continue
		}
		if r.breaker.Allow(now) {
			return r
		}
	}
	return nil
}

// attemptResult is one proxied attempt's outcome.
type attemptResult struct {
	rep    *Replica
	status int
	header http.Header
	body   []byte
	err    error
}

// ok reports whether the attempt produced a client-servable answer: any
// response below 500. A 4xx is the client's fault and retrying it on
// another replica would return the same answer.
func (a attemptResult) ok() bool { return a.err == nil && a.status < 500 }

// forward sends one attempt to rep and reports the outcome to its breaker.
func (rt *Router) forward(ctx context.Context, rep *Replica, r *http.Request, body []byte) attemptResult {
	res := attemptResult{rep: rep}
	url := rep.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	ctx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, url, rd)
	if err != nil {
		res.err = err
		return res
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := r.Header.Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	rep.requests.Add(1)
	rep.inflight.Add(1)
	resp, err := rt.client.Do(req)
	rep.inflight.Add(-1)
	now := time.Now()
	if err != nil {
		res.err = err
		// A cancelled attempt (hedge lost the race, or the client went
		// away) says nothing about the replica's health: reporting it as
		// a failure would let routine hedging open every breaker. But if
		// this attempt held the half-open probe slot, it must be released
		// or the breaker wedges in half-open forever.
		if errors.Is(ctx.Err(), context.Canceled) {
			rep.breaker.AbortProbe()
		} else {
			rep.failures.Add(1)
			rep.breaker.Report(false, now)
		}
		return res
	}
	defer func() { _ = resp.Body.Close() }()
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body, err = io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err == nil && len(res.body) > maxResponseBody {
		err = fmt.Errorf("response exceeds %d bytes", maxResponseBody)
	}
	if err != nil {
		res.err = err
		res.body = nil
		if errors.Is(ctx.Err(), context.Canceled) {
			rep.breaker.AbortProbe()
		} else {
			rep.failures.Add(1)
			rep.breaker.Report(false, now)
		}
		return res
	}
	good := resp.StatusCode < 500
	if !good {
		rep.failures.Add(1)
	}
	rep.breaker.Report(good, now)
	return res
}

// attemptHedged runs one attempt against primary, racing a hedge replica if
// the primary is slower than the hedge delay. The first servable answer
// wins; the loser's context is cancelled on return.
func (rt *Router) attemptHedged(ctx context.Context, primary *Replica, r *http.Request,
	body []byte, key uint64, tried map[int]bool, hedge bool) attemptResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult, 2)
	go func() { ch <- rt.forward(ctx, primary, r, body) }()
	inFlight := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if hedge && rt.opts.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(rt.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var last attemptResult
	for {
		select {
		case res := <-ch:
			inFlight--
			if res.ok() {
				if res.rep != primary {
					rt.hedgeWins.Add(1)
				}
				return res
			}
			last = res
			if inFlight == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			sec := rt.pick(key, tried, time.Now(), true)
			if sec == nil {
				continue
			}
			tried[sec.idx] = true
			sec.hedges.Add(1)
			rt.hedges.Add(1)
			inFlight++
			go func() { ch <- rt.forward(ctx, sec, r, body) }()
		}
	}
}

// proxyHandler answers one /v1/* endpoint through the fleet: pick (hash or
// least-loaded), hedge stragglers, retry failures on other replicas with
// jittered backoff, and surface an error only when every option is spent.
func (rt *Router) proxyHandler(endpoint string) http.Handler {
	hist := rt.metrics.Histogram("fleet_request_seconds", obs.Labels{"endpoint": endpoint})
	hedgeable := endpoint == "select" || endpoint == "predict"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rt.proxied.Add(1)
		var body []byte
		if r.Body != nil {
			var err error
			body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
			if err != nil {
				// Only an actual over-limit read is a 413; aborted or
				// broken client reads are their own fault class.
				code, msg := http.StatusBadRequest, "reading request body: %v"
				var mbe *http.MaxBytesError
				if errors.As(err, &mbe) {
					code, msg = http.StatusRequestEntityTooLarge, "request body too large: %v"
				}
				rt.writeError(w, code, msg, err)
				rt.observe(endpoint, code, hist, t0)
				return
			}
		}
		key := instanceKey(r, body)
		rng := sim.NewRNG(sim.Seed(rt.opts.Seed, rt.reqSeq.Add(1)))
		tried := make(map[int]bool, len(rt.replicas))

		var last attemptResult
		for attempt := 0; attempt <= rt.opts.Retries; attempt++ {
			if attempt > 0 {
				rt.retries.Add(1)
				backoff := retryBase << (attempt - 1)
				backoff += time.Duration(rng.Float64() * float64(retryBase))
				time.Sleep(backoff)
			}
			rep := rt.pick(key, tried, time.Now(), false)
			if rep == nil {
				break
			}
			tried[rep.idx] = true
			last = rt.attemptHedged(r.Context(), rep, r, body, key, tried, hedgeable)
			if last.ok() {
				rt.writeAttempt(w, last)
				rt.observe(endpoint, last.status, hist, t0)
				return
			}
		}
		rt.clientErrors.Add(1)
		// The status written to the client and the one recorded in
		// metrics must be the same value.
		var code int
		switch {
		case last.rep == nil && last.err == nil:
			code = http.StatusServiceUnavailable
			rt.writeError(w, code, "no ready replica")
		case last.err != nil:
			code = http.StatusBadGateway
			rt.writeError(w, code, "all replicas failed, last: %v", last.err)
		default:
			code = last.status
			rt.writeAttempt(w, last) // forward the backend's 5xx verbatim
		}
		rt.observe(endpoint, code, hist, t0)
	})
}

// observe folds one answered request into the availability monitor and
// metrics registry.
func (rt *Router) observe(endpoint string, code int, hist *obs.Histogram, t0 time.Time) {
	rt.avail.Observe(code < 500)
	hist.Observe(time.Since(t0).Seconds())
	rt.metrics.Counter("fleet_requests_total",
		obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}).Inc()
}

func (rt *Router) writeAttempt(w http.ResponseWriter, res attemptResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if id := res.header.Get("X-Request-Id"); id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	w.Header().Set("X-Fleet-Replica", res.rep.URL)
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil && rt.log != nil {
		rt.log.Debugf("fleet: writing response: %v", err)
	}
}

func (rt *Router) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// FleetCounters aggregates the router's resilience machinery.
type FleetCounters struct {
	Proxied           int64   `json:"proxied_total"`
	ClientErrors      int64   `json:"client_errors_total"`
	Retries           int64   `json:"retries_total"`
	Hedges            int64   `json:"hedges_total"`
	HedgeWins         int64   `json:"hedge_wins_total"`
	BreakerOpens      uint64  `json:"breaker_opens_total"`
	BreakerRejections uint64  `json:"breaker_rejections_total"`
	AvailabilityBurn  float64 `json:"availability_burn"`
	AvailabilityLevel string  `json:"availability_level"`
}

// FleetStatus is the /fleet/status payload.
type FleetStatus struct {
	Replicas []ReplicaStatus `json:"replicas"`
	Counters FleetCounters   `json:"counters"`
	Rollout  RolloutStatus   `json:"rollout"`
}

// Status snapshots the fleet.
func (rt *Router) Status() FleetStatus {
	st := FleetStatus{Rollout: rt.RolloutStatus()}
	var opens, rejects uint64
	for _, r := range rt.replicas {
		st.Replicas = append(st.Replicas, r.status())
		o, rej := r.breaker.Stats()
		opens += o
		rejects += rej
	}
	st.Counters = FleetCounters{
		Proxied:           rt.proxied.Load(),
		ClientErrors:      rt.clientErrors.Load(),
		Retries:           rt.retries.Load(),
		Hedges:            rt.hedges.Load(),
		HedgeWins:         rt.hedgeWins.Load(),
		BreakerOpens:      opens,
		BreakerRejections: rejects,
		AvailabilityBurn:  rt.avail.Burn(),
		AvailabilityLevel: rt.avail.Level().String(),
	}
	return st
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := 0
	for _, rep := range rt.replicas {
		if rep.ready.Load() {
			ready++
		}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "replicas": len(rt.replicas), "ready": ready,
	})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := 0
	for _, rep := range rt.replicas {
		if rep.ready.Load() {
			ready++
		}
	}
	if ready == 0 {
		rt.writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "not_ready", "reason": "no ready replica"})
		return
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "ready": ready})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.Status()
	rt.metrics.Gauge("fleet_retries_total", nil).Set(float64(st.Counters.Retries))
	rt.metrics.Gauge("fleet_hedges_total", nil).Set(float64(st.Counters.Hedges))
	rt.metrics.Gauge("fleet_hedge_wins_total", nil).Set(float64(st.Counters.HedgeWins))
	rt.metrics.Gauge("fleet_breaker_opens_total", nil).Set(float64(st.Counters.BreakerOpens))
	rt.metrics.Gauge("fleet_breaker_rejections_total", nil).Set(float64(st.Counters.BreakerRejections))
	rt.metrics.Gauge("fleet_client_errors_total", nil).Set(float64(st.Counters.ClientErrors))
	rt.metrics.Gauge("fleet_availability_burn", nil).Set(st.Counters.AvailabilityBurn)
	for _, rep := range st.Replicas {
		labels := obs.Labels{"replica": rep.URL}
		ready := 0.0
		if rep.Ready {
			ready = 1
		}
		rt.metrics.Gauge("fleet_replica_ready", labels).Set(ready)
		rt.metrics.Gauge("fleet_replica_requests_total", labels).Set(float64(rep.Requests))
		rt.metrics.Gauge("fleet_replica_failures_total", labels).Set(float64(rep.Failures))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := rt.metrics.WriteText(w); err != nil && rt.log != nil {
		rt.log.Debugf("fleet: writing metrics: %v", err)
	}
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil && rt.log != nil {
		rt.log.Debugf("fleet: writing response: %v", err)
	}
}
