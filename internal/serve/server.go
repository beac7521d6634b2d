// Package serve is the tuning service of the framework: the paper's
// deployment story (§V) — "which algorithm for (coll, n, ppn, m)?" at
// allocation time — run as a long-lived process. Trained selectors are
// loaded from model snapshots into a hot-reloadable registry, answered
// selections are memoized in a sharded LRU cache, and every endpoint
// reports latency and traffic into the observability registry.
//
// Endpoints:
//
//	GET/POST /v1/select    one tuning decision for an instance
//	GET/POST /v1/predict   every configuration's predicted time, ranked
//	POST     /v1/batch     many decisions in one round trip
//	POST     /v1/reload    reload snapshots from disk (also SIGHUP); an
//	                       optional {"paths": [...]} body switches the
//	                       snapshot set (the fleet canary-rollout seam)
//	GET      /v1/telemetry drift + SLO monitor states
//	GET      /healthz      liveness + loaded-model inventory
//	GET      /readyz       readiness: 503 until the first snapshot
//	                       generation loads and during shutdown drain
//	GET      /metrics      obs registry snapshot (text, ?format=json)
//	GET      /debug/traces recent request traces (JSON, ?format=chrome)
//
// Every request carries an X-Request-Id (caller-provided or assigned) that
// threads through the span tree, the response header, and the audit log —
// one id connects a loadgen worker, its trace, and its audit lines.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
)

// Options configures a Server.
type Options struct {
	// SnapshotPaths are the model snapshots served; Reload re-reads them.
	SnapshotPaths []string
	// CacheSize is the selection-cache capacity in entries (default 65536;
	// negative disables caching).
	CacheSize int
	// Log receives request-path errors; nil discards them.
	Log *obs.Logger
	// Metrics is the registry the server reports into (default obs.Default).
	Metrics *obs.Registry
	// Audit is the selection audit log; nil disables auditing.
	Audit *audit.Logger
	// TraceRing is how many recent request traces /debug/traces keeps;
	// 0 (the default) disables tracing entirely — the request path then
	// takes the zero-allocation no-op spans.
	TraceRing int
	// Middleware, when set, wraps the whole handler chain in Serve —
	// the seam the chaos injector (fault.ChaosPlan) plugs into.
	Middleware func(http.Handler) http.Handler
}

// Server answers tuning queries from a registry of loaded models.
type Server struct {
	reg        *Registry
	cache      *SelectionCache
	pathsMu    sync.Mutex
	paths      []string
	log        *obs.Logger
	metrics    *obs.Registry
	auditLog   *audit.Logger
	ring       *obs.SpanRing // nil when tracing is off
	tel        *Telemetry
	reqSeq     atomic.Uint64
	mux        *http.ServeMux
	httpSrv    *http.Server
	middleware func(http.Handler) http.Handler
	draining   atomic.Bool
	retrainMu  sync.Mutex
	retrainFn  func() any
}

// cacheShards is the selection cache's shard count.
const cacheShards = 16

// maxBodyBytes bounds request bodies; the largest legitimate payload is a
// batch of a few thousand instances.
const maxBodyBytes = 1 << 20

// New builds a server and performs the initial snapshot load (skipped when
// no paths are configured — models can be Installed in-process instead).
func New(opts Options) (*Server, error) {
	if opts.CacheSize == 0 {
		opts.CacheSize = 65536
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	s := &Server{
		reg:        NewRegistry(),
		cache:      NewSelectionCache(opts.CacheSize, cacheShards),
		paths:      append([]string(nil), opts.SnapshotPaths...),
		log:        opts.Log,
		metrics:    opts.Metrics,
		auditLog:   opts.Audit,
		ring:       obs.NewSpanRing(opts.TraceRing),
		tel:        newTelemetry(),
		middleware: opts.Middleware,
	}
	if len(s.paths) > 0 {
		if err := s.reg.Load(s.paths); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/select", s.instrument("select", s.handleSelect))
	s.mux.Handle("/v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.Handle("/v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.Handle("/v1/reload", s.instrument("reload", s.handleReload))
	s.mux.Handle("/v1/telemetry", s.instrument("telemetry", s.handleTelemetry))
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("/debug/traces", s.instrument("traces", s.handleTraces))
	s.mux.Handle("/v1/retrain/status", s.instrument("retrain_status", s.handleRetrainStatus))
	return s, nil
}

// SetRetrainStatus installs the status provider behind /v1/retrain/status.
// The serving layer knows nothing about the retraining loop beyond this
// callback — the loop lives in internal/retrain and reaches back into the
// server only through ReloadPaths, keeping the dependency one-directional.
func (s *Server) SetRetrainStatus(fn func() any) {
	s.retrainMu.Lock()
	s.retrainFn = fn
	s.retrainMu.Unlock()
}

func (s *Server) handleRetrainStatus(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return s.writeError(w, http.StatusMethodNotAllowed, "GET the retrain status")
	}
	s.retrainMu.Lock()
	fn := s.retrainFn
	s.retrainMu.Unlock()
	if fn == nil {
		return s.writeError(w, http.StatusNotFound, "retraining loop not enabled (-retrain)")
	}
	return s.writeJSON(w, http.StatusOK, fn())
}

// Registry exposes the model registry (for in-process installs and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the selection cache.
func (s *Server) Cache() *SelectionCache { return s.cache }

// Telemetry exposes the drift/SLO monitors.
func (s *Server) Telemetry() *Telemetry { return s.tel }

// TraceRing exposes the recent-trace ring (nil when tracing is off).
func (s *Server) TraceRing() *obs.SpanRing { return s.ring }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve answers requests on l until Shutdown. The full timeout set guards
// the fleet's replicas against slow-loris clients and wedged writes: a
// stuck peer times out instead of pinning a connection forever.
func (s *Server) Serve(l net.Listener) error {
	h := http.Handler(s.mux)
	if s.middleware != nil {
		h = s.middleware(h)
	}
	s.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// BeginDrain flips /readyz to not-ready so the fleet router stops routing
// here, without refusing the requests already in flight. Call it on SIGTERM
// before Shutdown; the gap between the two is the router's chance to notice.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Ready reports whether the server should receive routed traffic, and if
// not, why: a server is ready once the first snapshot generation is loaded
// and until it starts draining.
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if s.reg.Gen() == 0 {
		return false, "no models loaded"
	}
	return true, ""
}

// Shutdown drains in-flight requests and stops the listener.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Reload re-reads the configured snapshot paths and atomically swaps the
// model set; on error the previous generation keeps serving.
func (s *Server) Reload() error {
	s.pathsMu.Lock()
	paths := append([]string(nil), s.paths...)
	s.pathsMu.Unlock()
	if len(paths) == 0 {
		return fmt.Errorf("serve: no snapshot paths configured to reload")
	}
	return s.reg.Load(paths)
}

// ReloadPaths swaps the served snapshot set to the given paths — the canary
// seam: a rollout points one replica at candidate snapshots, and rollback
// points it at the previous ones. On load error the configured paths and
// the serving generation are both left untouched.
func (s *Server) ReloadPaths(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("serve: reload with no snapshot paths")
	}
	if err := s.reg.Load(paths); err != nil {
		return err
	}
	s.pathsMu.Lock()
	s.paths = append([]string(nil), paths...)
	s.pathsMu.Unlock()
	return nil
}

// SnapshotPaths returns the currently configured snapshot paths.
func (s *Server) SnapshotPaths() []string {
	s.pathsMu.Lock()
	defer s.pathsMu.Unlock()
	return append([]string(nil), s.paths...)
}

// ctxKey keys the per-request info in the request context.
type ctxKey int

const reqCtxKey ctxKey = 0

// reqInfo is what the middleware threads to the handlers: the request id
// (header-provided or assigned) and the root span (nil when tracing is off).
type reqInfo struct {
	id   string
	span *obs.Span
}

// reqFrom recovers the request info; handlers invoked directly (tests) get
// an anonymous id and no span.
func reqFrom(r *http.Request) reqInfo {
	if ri, ok := r.Context().Value(reqCtxKey).(reqInfo); ok {
		return ri
	}
	return reqInfo{id: "untracked"}
}

// instrument wraps a handler with the per-endpoint latency histogram,
// request counter, SLO burn accounting, request-id propagation and the
// request's root span.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.Handler {
	hist := s.metrics.Histogram("serve_request_seconds", obs.Labels{"endpoint": name})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		sp := s.ring.StartRequest(id, name) // nil-safe: nil ring → nil span
		r = r.WithContext(context.WithValue(r.Context(), reqCtxKey, reqInfo{id: id, span: sp}))
		t0 := time.Now()
		code := h(w, r)
		elapsed := time.Since(t0)
		sp.SetTag("code", strconv.Itoa(code))
		sp.End()
		s.tel.ObserveRequest(code, elapsed)
		hist.Observe(elapsed.Seconds())
		s.metrics.Counter("serve_requests_total",
			obs.Labels{"endpoint": name, "code": strconv.Itoa(code)}).Inc()
	})
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil && s.log != nil {
		s.log.Debugf("serve: writing response: %v", err)
	}
	return code
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) int {
	return s.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// InstanceRequest is the (nodes, ppn, msize) triple of a tuning query.
type InstanceRequest struct {
	Nodes int   `json:"nodes"`
	PPN   int   `json:"ppn"`
	Msize int64 `json:"msize"`
}

// SelectRequest asks for one tuning decision.
type SelectRequest struct {
	Model string `json:"model,omitempty"`
	InstanceRequest
}

// Decision is the JSON form of a core.Prediction. PredictedSeconds is null
// when the guardrails fell back (their prediction is NaN by design) or the
// configuration is quarantined.
type Decision struct {
	ConfigID         int      `json:"config_id"`
	AlgID            int      `json:"alg_id"`
	Label            string   `json:"label"`
	PredictedSeconds *float64 `json:"predicted_seconds"`
	Fallback         bool     `json:"fallback,omitempty"`
	FallbackReason   string   `json:"fallback_reason,omitempty"`
	Cached           bool     `json:"cached,omitempty"`
}

func toDecision(p core.Prediction, cached bool) Decision {
	d := Decision{ConfigID: p.ConfigID, AlgID: p.AlgID, Label: p.Label,
		Fallback: p.Fallback, FallbackReason: p.FallbackReason, Cached: cached}
	if !math.IsNaN(p.Predicted) && !math.IsInf(p.Predicted, 0) {
		v := p.Predicted
		d.PredictedSeconds = &v
	}
	return d
}

// SelectResponse echoes the instance and carries the decision.
type SelectResponse struct {
	Model string `json:"model"`
	Coll  string `json:"coll"`
	InstanceRequest
	Decision
}

// decodeJSON decodes a body-capped POST payload. Overflowing maxBodyBytes
// is a client fault with its own status and counter: the 413 tells the
// caller to split the batch, and the counter makes an abusive client
// visible in one /metrics scrape.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.Counter("serve_body_overflow_total", nil).Inc()
			return errBodyTooLarge
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	return nil
}

// writeRequestError maps a parse/decode failure to its status code.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, errMethod):
		return s.writeError(w, http.StatusMethodNotAllowed, "%v", err)
	case errors.Is(err, errBodyTooLarge):
		return s.writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", maxBodyBytes)
	default:
		return s.writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// parseSelectRequest accepts both GET query parameters (curl-friendly) and
// a POST JSON body.
func (s *Server) parseSelectRequest(w http.ResponseWriter, r *http.Request) (SelectRequest, error) {
	var req SelectRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Model = q.Get("model")
		var err error
		if req.Nodes, err = strconv.Atoi(q.Get("nodes")); err != nil {
			return req, fmt.Errorf("bad nodes %q", q.Get("nodes"))
		}
		if req.PPN, err = strconv.Atoi(q.Get("ppn")); err != nil {
			return req, fmt.Errorf("bad ppn %q", q.Get("ppn"))
		}
		if req.Msize, err = strconv.ParseInt(q.Get("msize"), 10, 64); err != nil {
			return req, fmt.Errorf("bad msize %q", q.Get("msize"))
		}
	case http.MethodPost:
		if err := s.decodeJSON(w, r, &req); err != nil {
			return req, err
		}
	default:
		return req, errMethod
	}
	return req, nil
}

var (
	errMethod       = errors.New("method not allowed; use GET or POST")
	errBodyTooLarge = errors.New("request body too large")
)

// resolve validates the instance and resolves the model against one
// captured registry generation.
func (s *Server) resolve(w http.ResponseWriter, req SelectRequest) (*modelSet, *Model, int) {
	if err := dataset.CheckInstance(req.Nodes, req.PPN, req.Msize); err != nil {
		return nil, nil, s.writeError(w, http.StatusBadRequest, "invalid instance: %v", err)
	}
	set := s.reg.view()
	m, err := set.get(req.Model)
	if err != nil {
		return nil, nil, s.writeError(w, http.StatusNotFound, "%v", err)
	}
	return set, m, 0
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) int {
	ri := reqFrom(r)
	endParse := ri.span.StartSpan("parse")
	req, err := s.parseSelectRequest(w, r)
	endParse()
	if err != nil {
		return s.writeRequestError(w, err)
	}
	endResolve := ri.span.StartSpan("resolve")
	set, m, code := s.resolve(w, req)
	endResolve()
	if m == nil {
		return code
	}
	t0 := time.Now()
	p, cached := s.selectCached(set, m, req.InstanceRequest, ri.span)
	d := toDecision(p, cached)
	s.observeDecision(ri, "select", set, m, req.InstanceRequest, d, time.Since(t0))
	return s.writeJSON(w, http.StatusOK, SelectResponse{
		Model: m.Name, Coll: m.Sel.Coll,
		InstanceRequest: req.InstanceRequest,
		Decision:        d,
	})
}

// selectCached answers one instance through the cache; sp (nil when tracing
// is off) gets "cache" and selector-stage child spans.
func (s *Server) selectCached(set *modelSet, m *Model, in InstanceRequest, sp *obs.Span) (core.Prediction, bool) {
	key := CacheKey{Gen: set.gen, Model: m.Name, Nodes: in.Nodes, PPN: in.PPN, Msize: in.Msize}
	c := sp.StartChild("cache")
	if p, ok := s.cache.Get(key); ok {
		c.SetTag("result", "hit")
		c.End()
		return p, true
	}
	c.SetTag("result", "miss")
	c.End()
	var tr core.Tracer
	if sp != nil {
		tr = sp
	}
	p := m.Sel.SelectTraced(in.Nodes, in.PPN, in.Msize, tr)
	s.cache.Put(key, p)
	return p, false
}

// observeDecision is the telemetry seam every served decision passes
// through: the drift monitors see it, and (when auditing is on) it becomes
// one JSONL line keyed by the request id.
func (s *Server) observeDecision(ri reqInfo, endpoint string, set *modelSet, m *Model,
	in InstanceRequest, d Decision, latency time.Duration) {
	s.tel.ObserveDecision(m.Name, d)
	if s.auditLog == nil {
		return
	}
	err := s.auditLog.Append(audit.Record{
		RequestID: ri.id, Endpoint: endpoint,
		Model: m.Name, Coll: m.Sel.Coll,
		Lib: m.Fp.Lib, Machine: m.Fp.Machine, Dataset: m.Fp.Dataset,
		Generation: set.gen,
		Nodes:      in.Nodes, PPN: in.PPN, Msize: in.Msize,
		ConfigID: d.ConfigID, AlgID: d.AlgID, Label: d.Label,
		PredictedSeconds: d.PredictedSeconds, Cached: d.Cached,
		Fallback: d.Fallback, FallbackReason: d.FallbackReason,
		LatencyUs: latency.Microseconds(),
	})
	if err != nil && s.log != nil {
		s.log.Debugf("serve: audit append: %v", err)
	}
}

// PredictResponse ranks every configuration for the instance.
type PredictResponse struct {
	Model string `json:"model"`
	Coll  string `json:"coll"`
	InstanceRequest
	Predictions []Decision `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	req, err := s.parseSelectRequest(w, r)
	if err != nil {
		return s.writeRequestError(w, err)
	}
	_, m, code := s.resolve(w, req)
	if m == nil {
		return code
	}
	preds := m.Sel.PredictAll(req.Nodes, req.PPN, req.Msize)
	resp := PredictResponse{Model: m.Name, Coll: m.Sel.Coll, InstanceRequest: req.InstanceRequest}
	for _, p := range preds {
		resp.Predictions = append(resp.Predictions, toDecision(p, false))
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// BatchRequest asks for decisions on many instances at once.
type BatchRequest struct {
	Model     string            `json:"model,omitempty"`
	Instances []InstanceRequest `json:"instances"`
}

// BatchResult is one instance's outcome; Error is set instead of the
// decision when the instance failed validation.
type BatchResult struct {
	InstanceRequest
	Decision
	Error string `json:"error,omitempty"`
}

// BatchResponse carries per-instance results in request order.
type BatchResponse struct {
	Model   string        `json:"model"`
	Coll    string        `json:"coll"`
	Results []BatchResult `json:"results"`
}

// maxBatchInstances bounds one batch request.
const maxBatchInstances = 10000

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return s.writeError(w, http.StatusMethodNotAllowed, "POST a BatchRequest")
	}
	var req BatchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		return s.writeRequestError(w, err)
	}
	if len(req.Instances) == 0 {
		return s.writeError(w, http.StatusBadRequest, "empty batch")
	}
	if len(req.Instances) > maxBatchInstances {
		return s.writeError(w, http.StatusBadRequest, "batch of %d instances exceeds the %d limit",
			len(req.Instances), maxBatchInstances)
	}
	set := s.reg.view()
	m, err := set.get(req.Model)
	if err != nil {
		return s.writeError(w, http.StatusNotFound, "%v", err)
	}
	ri := reqFrom(r)
	ri.span.SetTag("instances", strconv.Itoa(len(req.Instances)))
	resp := BatchResponse{Model: m.Name, Coll: m.Sel.Coll, Results: make([]BatchResult, len(req.Instances))}
	s.metrics.Counter("serve_batch_instances_total", nil).Add(int64(len(req.Instances)))

	// Answer each distinct valid instance once, on up to GOMAXPROCS
	// goroutines, however many instances the batch carries. par.Run commits in instance order: a repeat copies the
	// decision of its first occurrence as a cache hit, and every valid
	// entry is observed there, under the batch's request id (entries get no
	// spans of their own — a 10000-instance batch would drown the trace
	// ring). Cached flags and the audit-record sequence therefore do not
	// depend on scheduling. An invalid instance gets a per-entry error
	// without failing the rest of the batch.
	first := make([]int, len(req.Instances)) // -1 marks an invalid instance
	seen := make(map[InstanceRequest]int, len(req.Instances))
	for i, in := range req.Instances {
		resp.Results[i].InstanceRequest = in
		if err := dataset.CheckInstance(in.Nodes, in.PPN, in.Msize); err != nil {
			resp.Results[i].Error = err.Error()
			first[i] = -1
			continue
		}
		j, ok := seen[in]
		if !ok {
			j = i
			seen[in] = i
		}
		first[i] = j
	}
	type answer struct {
		d       Decision
		latency time.Duration
	}
	// Neither the selection nor the commit can fail.
	_ = par.Run(len(req.Instances), runtime.GOMAXPROCS(0), nil,
		func(_, i int) (answer, error) {
			if first[i] != i {
				return answer{}, nil
			}
			t0 := time.Now()
			p, cached := s.selectCached(set, m, req.Instances[i], nil)
			return answer{toDecision(p, cached), time.Since(t0)}, nil
		},
		func(i int, a answer) error {
			j := first[i]
			if j < 0 {
				return nil
			}
			if j != i {
				a.d = resp.Results[j].Decision
				a.d.Cached = true
			}
			resp.Results[i].Decision = a.d
			s.observeDecision(ri, "batch", set, m, req.Instances[i], a.d, a.latency)
			return nil
		})
	return s.writeJSON(w, http.StatusOK, resp)
}

// ReloadRequest is the optional /v1/reload body: naming Paths switches the
// served snapshot set (rollout/rollback); an empty body re-reads the
// current one.
type ReloadRequest struct {
	Paths []string `json:"paths"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return s.writeError(w, http.StatusMethodNotAllowed, "POST to reload")
	}
	var req ReloadRequest
	if r.Body != nil && r.ContentLength != 0 {
		if err := s.decodeJSON(w, r, &req); err != nil {
			return s.writeRequestError(w, err)
		}
	}
	var err error
	if len(req.Paths) > 0 {
		err = s.ReloadPaths(req.Paths)
	} else {
		err = s.Reload()
	}
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, "reload failed (previous models still serving): %v", err)
	}
	return s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "reloaded", "generation": s.reg.Gen(), "models": s.reg.Names(),
		"paths": s.SnapshotPaths(),
	})
}

// ReadyResponse is the /readyz payload.
type ReadyResponse struct {
	Status     string `json:"status"`
	Reason     string `json:"reason,omitempty"`
	Generation uint64 `json:"generation"`
}

// handleReadyz is the router's probe target: liveness (/healthz) says the
// process is up, readiness says it should receive routed traffic — which
// is false before the first snapshot generation and during drain.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) int {
	ready, reason := s.Ready()
	resp := ReadyResponse{Status: "ready", Generation: s.reg.Gen()}
	if !ready {
		resp.Status = "not_ready"
		resp.Reason = reason
		return s.writeJSON(w, http.StatusServiceUnavailable, resp)
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// ModelInfo describes one loaded model in /healthz.
type ModelInfo struct {
	Name        string `json:"name"`
	Coll        string `json:"coll"`
	Learner     string `json:"learner"`
	Dataset     string `json:"dataset"`
	Lib         string `json:"lib"`
	Machine     string `json:"machine"`
	DatasetHash string `json:"dataset_hash"`
	TrainNodes  []int  `json:"train_nodes"`
	Configs     int    `json:"configs"`
	Quarantined int    `json:"quarantined"`
	Fallbacks   int    `json:"fallbacks"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status        string      `json:"status"`
	Ready         bool        `json:"ready"`
	Generation    uint64      `json:"generation"`
	SnapshotPaths []string    `json:"snapshot_paths,omitempty"`
	Models        []ModelInfo `json:"models"`
	CacheSize     int         `json:"cache_size"`
	CacheHits     int64       `json:"cache_hits"`
	CacheMiss     int64       `json:"cache_misses"`
	CacheEvict    int64       `json:"cache_evictions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	set := s.reg.view()
	ready, _ := s.Ready()
	resp := HealthResponse{Status: "ok", Ready: ready, Generation: set.gen,
		SnapshotPaths: s.SnapshotPaths()}
	for _, name := range set.names { // sorted at install time
		m := set.byName[name]
		resp.Models = append(resp.Models, ModelInfo{
			Name: m.Name, Coll: m.Sel.Coll, Learner: m.Sel.Learner,
			Dataset: m.Fp.Dataset, Lib: m.Fp.Lib, Machine: m.Fp.Machine,
			DatasetHash: fmt.Sprintf("%016x", m.Fp.DatasetHash),
			TrainNodes:  m.Sel.TrainNodes,
			Configs:     len(m.Sel.Configs()),
			Quarantined: len(m.Sel.Quarantined()),
			Fallbacks:   m.Sel.Fallbacks(),
		})
	}
	resp.CacheSize = s.cache.Len()
	resp.CacheHits, resp.CacheMiss, resp.CacheEvict = s.cache.Stats()
	return s.writeJSON(w, http.StatusOK, resp)
}

// handleTelemetry serves the drift and SLO monitor states.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return s.writeError(w, http.StatusMethodNotAllowed, "GET the telemetry snapshot")
	}
	return s.writeJSON(w, http.StatusOK, s.tel.Snapshot(s.ring))
}

// handleTraces serves the recent-trace ring, as JSON or (?format=chrome) in
// the Chrome trace-event format shared with the simulator timelines.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return s.writeError(w, http.StatusMethodNotAllowed, "GET the trace ring")
	}
	var err error
	if strings.EqualFold(r.URL.Query().Get("format"), "chrome") {
		w.Header().Set("Content-Type", "application/json")
		err = s.ring.WriteChrome(w)
	} else {
		w.Header().Set("Content-Type", "application/json")
		err = s.ring.WriteJSON(w)
	}
	if err != nil && s.log != nil {
		s.log.Debugf("serve: writing traces: %v", err)
	}
	return http.StatusOK
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	// Mirror the cache counters and monitor states into the registry so one
	// scrape has HTTP, cache, drift and SLO health together.
	hits, misses, evict := s.cache.Stats()
	s.metrics.Gauge("serve_cache_hits_total", nil).Set(float64(hits))
	s.metrics.Gauge("serve_cache_misses_total", nil).Set(float64(misses))
	s.metrics.Gauge("serve_cache_evictions_total", nil).Set(float64(evict))
	s.metrics.Gauge("serve_cache_entries", nil).Set(float64(s.cache.Len()))
	s.tel.mirror(s.metrics, s.ring)

	var err error
	if strings.EqualFold(r.URL.Query().Get("format"), "json") {
		w.Header().Set("Content-Type", "application/json")
		err = s.metrics.WriteJSON(w)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = s.metrics.WriteText(w)
	}
	if err != nil && s.log != nil {
		s.log.Debugf("serve: writing metrics: %v", err)
	}
	return http.StatusOK
}
