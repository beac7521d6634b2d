package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/serve"
)

// fleetModels trains one knn and one linear selector once for the whole
// package (training is the slow part; every test only reads them).
var fleetModels struct {
	once sync.Once
	knn  *serve.Model
	lin  *serve.Model
	err  error
}

func testModels(t testing.TB) (*serve.Model, *serve.Model) {
	t.Helper()
	fleetModels.once.Do(func() {
		spec, err := dataset.SpecByName("d2", dataset.ScaleSmoke)
		if err != nil {
			fleetModels.err = err
			return
		}
		spec.Nodes = []int{2, 3, 4, 5, 6}
		spec.PPNs = []int{1, 4}
		spec.Msizes = []int64{16, 1024, 16384, 262144}
		ds, err := dataset.Generate(spec, bench.Options{MaxReps: 3, SyncJitter: 1e-7}, nil)
		if err != nil {
			fleetModels.err = err
			return
		}
		mach, set, err := spec.Resolve()
		if err != nil {
			fleetModels.err = err
			return
		}
		trainNodes := []int{2, 4, 6}
		for _, learner := range []string{"knn", "linear"} {
			sel, err := core.Train(ds, set, learner, trainNodes)
			if err != nil {
				fleetModels.err = err
				return
			}
			sel.SetFallback(mach, set)
			fp := core.FingerprintFor(ds, learner, trainNodes)
			m := &serve.Model{Name: serve.ModelName(fp), Sel: sel, Fp: fp}
			if learner == "knn" {
				fleetModels.knn = m
			} else {
				fleetModels.lin = m
			}
		}
	})
	if fleetModels.err != nil {
		t.Fatal(fleetModels.err)
	}
	return fleetModels.knn, fleetModels.lin
}

// newReplica starts one real mpicollserve replica on a loopback listener,
// optionally wrapped in middleware (the chaos seam), and returns both the
// serve.Server (for white-box assertions) and its HTTP front.
func newReplica(t *testing.T, opts serve.Options, mw func(http.Handler) http.Handler, models ...*serve.Model) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) > 0 {
		if err := s.Registry().Install(models...); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	if mw != nil {
		h = mw(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return s, srv
}

func newRouter(t *testing.T, urls []string, tweak func(*Options)) *Router {
	t.Helper()
	opts := Options{
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		Retries:       3,
		Seed:          42,
	}
	if tweak != nil {
		tweak(&opts)
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker()
	now := time.Unix(0, 0)
	if !b.Allow(now) {
		t.Fatal("fresh breaker must be closed")
	}
	// A success between failures resets the consecutive count: one short
	// run, a success, then another short run leaves the breaker closed.
	for i := 0; i < breakerThreshold-1; i++ {
		b.Report(false, now)
	}
	b.Report(true, now)
	for i := 0; i < breakerThreshold-1; i++ {
		b.Report(false, now)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after non-consecutive failures, want closed", b.State())
	}
	// The threshold-th consecutive failure opens.
	b.Report(false, now)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow(now.Add(breakerCooldown - time.Millisecond)) {
		t.Fatal("open breaker admitted a request before cooldown")
	}
	// After the cooldown exactly one probe passes.
	probeTime := now.Add(breakerCooldown)
	if !b.Allow(probeTime) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.Allow(probeTime) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: reopen; cooldown restarts from the failure.
	b.Report(false, probeTime)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if b.Allow(probeTime.Add(breakerCooldown - time.Millisecond)) {
		t.Fatal("reopened breaker admitted a request before the renewed cooldown")
	}
	again := probeTime.Add(breakerCooldown)
	if !b.Allow(again) {
		t.Fatal("breaker refused second probe after renewed cooldown")
	}
	b.Report(true, again)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	opens, rejections := b.Stats()
	if opens != 2 || rejections != 3 {
		t.Fatalf("stats opens=%d rejections=%d, want 2 and 3", opens, rejections)
	}
}

// TestBreakerAbortProbe is the regression test for the half-open wedge: a
// cancelled probe attempt (hedge lost the race, client disconnect) must
// release the probe slot instead of leaving the breaker rejecting every
// request until process restart.
func TestBreakerAbortProbe(t *testing.T) {
	b := NewBreaker()
	now := time.Unix(0, 0)
	for i := 0; i < breakerThreshold; i++ {
		b.Report(false, now)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	probeTime := now.Add(breakerCooldown)
	if !b.Allow(probeTime) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.Allow(probeTime) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// The probe was cancelled: releasing its slot must let a new probe in.
	b.AbortProbe()
	if !b.Allow(probeTime) {
		t.Fatal("breaker stayed wedged after the cancelled probe was aborted")
	}
	b.Report(true, probeTime)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful re-probe, want closed", b.State())
	}
	// On a closed breaker AbortProbe is a no-op.
	b.AbortProbe()
	if b.State() != BreakerClosed || !b.Allow(probeTime) {
		t.Fatal("AbortProbe disturbed a closed breaker")
	}
}

// TestPickHedgeSkipsHalfOpen: a hedge attempt is cancelled whenever the
// primary wins the race, so hedge picks must never consume a half-open
// probe slot — only non-cancellable primaries carry probes.
func TestPickHedgeSkipsHalfOpen(t *testing.T) {
	rt, err := New(Options{Replicas: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rt.replicas {
		r.ready.Store(true)
	}
	now := time.Unix(0, 0)
	target := rt.replicas[1]
	for i := 0; i < breakerThreshold; i++ {
		target.breaker.Report(false, now)
	}
	after := now.Add(breakerCooldown) // cooled down: probe-eligible
	excl := map[int]bool{0: true}     // the open-breaker replica is the only candidate
	if got := rt.pick(0, excl, after, true); got != nil {
		t.Fatalf("hedge pick returned %s whose breaker is not closed", got.URL)
	}
	if target.breaker.State() != BreakerOpen {
		t.Fatalf("hedge pick disturbed the breaker: state %v, want open", target.breaker.State())
	}
	// The same replica still takes the probe as a primary.
	if got := rt.pick(0, excl, after, false); got != target {
		t.Fatal("primary pick refused the half-open probe")
	}
}

// TestForwardOversizedResponse: a backend response over the proxy cap must
// fail the attempt rather than be truncated and forwarded under a 200.
func TestForwardOversizedResponse(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		buf := make([]byte, 1<<20)
		for written := 0; written <= maxResponseBody; written += len(buf) {
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
	}))
	defer big.Close()
	rt, err := New(Options{Replicas: []string{big.URL}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/select", nil)
	res := rt.forward(context.Background(), rt.replicas[0], req, nil)
	if res.err == nil {
		t.Fatalf("oversized response forwarded as success (status %d, %d bytes)", res.status, len(res.body))
	}
}

// TestNoReadyReplicaStatusMetrics: the 503 written to the client on the
// no-ready-replica path must be the same status recorded in metrics.
func TestNoReadyReplicaStatusMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rt, err := New(Options{Replicas: []string{"http://127.0.0.1:1"}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The replica is never marked ready: pick finds nothing.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/select?model=m&nodes=2&ppn=1&msize=16", nil)
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code %d, want 503", rec.Code)
	}
	if n := reg.Counter("fleet_requests_total", obs.Labels{"endpoint": "select", "code": "503"}).Value(); n != 1 {
		t.Fatalf("fleet_requests_total{code=503} = %d, want 1", n)
	}
}

func TestPickRendezvousStable(t *testing.T) {
	rt, err := New(Options{Replicas: []string{
		"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3",
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rt.replicas {
		r.ready.Store(true)
	}
	now := time.Unix(0, 0)
	// The same key always lands on the same owner.
	owner := rt.pick(12345, nil, now, false)
	for i := 0; i < 10; i++ {
		if got := rt.pick(12345, nil, now, false); got != owner {
			t.Fatalf("pick moved from %s to %s for a stable key", owner.URL, got.URL)
		}
	}
	// With the owner excluded, pick falls to the least-loaded survivor.
	rt.replicas[0].inflight.Store(5)
	rt.replicas[1].inflight.Store(5)
	rt.replicas[2].inflight.Store(5)
	var light *Replica
	for _, r := range rt.replicas {
		if r != owner {
			r.inflight.Store(1)
			light = r
			break
		}
	}
	got := rt.pick(12345, map[int]bool{owner.idx: true}, now, false)
	if got != light {
		t.Fatalf("fallback picked %s, want least-loaded %s", got.URL, light.URL)
	}
	// Different keys spread across replicas (not all on one owner).
	seen := map[string]bool{}
	for key := uint64(1); key < 64; key++ {
		seen[rt.pick(key, nil, now, false).URL] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 keys all hashed to one replica; rendezvous weights broken")
	}
	// An open breaker diverts the owner's traffic instead of failing it.
	for i := 0; i < breakerThreshold; i++ {
		owner.breaker.Report(false, now)
	}
	if got := rt.pick(12345, nil, now, false); got == owner {
		t.Fatal("pick routed to a replica with an open breaker")
	}
}

// TestFleetChaosZeroClientErrors is the acceptance test for the fault
// tolerance tentpole: three replicas behind the router, one killed mid-run
// and one under seeded delay/5xx chaos, while a multi-target loadgen drives
// the fleet. The client must see zero errors, and the router's retry and
// hedge machinery must show it actually absorbed the faults.
func TestFleetChaosZeroClientErrors(t *testing.T) {
	knn, _ := testModels(t)

	plan, err := fault.ParseChaos("delay:prob=0.2,ms=25;err:prob=0.15,code=503", 7)
	if err != nil {
		t.Fatal(err)
	}
	_, srvA := newReplica(t, serve.Options{CacheSize: 1024}, nil, knn)
	_, srvB := newReplica(t, serve.Options{CacheSize: 1024}, plan.Middleware, knn)
	_, srvC := newReplica(t, serve.Options{CacheSize: 1024}, nil, knn)

	rt := newRouter(t, []string{srvA.URL, srvB.URL, srvC.URL}, func(o *Options) {
		o.HedgeAfter = 10 * time.Millisecond
	})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Kill one replica while the load is running.
	killer := time.AfterFunc(200*time.Millisecond, srvC.Close)
	defer killer.Stop()

	rep, err := serve.Loadgen(context.Background(), serve.LoadgenOptions{
		URLs:     []string{front.URL},
		Duration: 600 * time.Millisecond,
		Workers:  8,
		Seed:     42,
		Retries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("loadgen issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d client requests failed through the fleet (want 0)",
			rep.Errors, rep.Requests)
	}
	st := rt.Status()
	if st.Counters.ClientErrors != 0 {
		t.Fatalf("router surfaced %d client-visible errors (want 0)", st.Counters.ClientErrors)
	}
	if st.Counters.Retries == 0 {
		t.Fatal("no retries recorded; the chaos replica's 503s were never absorbed")
	}
	if len(rep.Fleet) == 0 {
		t.Fatal("loadgen report carries no fleet status from the router")
	}
	var embedded FleetStatus
	if err := json.Unmarshal(rep.Fleet, &embedded); err != nil {
		t.Fatalf("embedded fleet status is not valid JSON: %v", err)
	}
	if embedded.Counters.Proxied == 0 {
		t.Fatal("embedded fleet status shows zero proxied requests")
	}
}

// TestRolloutPromoteAndRollback drives the canary state machine end to end:
// a healthy candidate promotes fleet-wide, then a rollout whose probes push
// the canary's drift monitors into breach rolls back automatically.
func TestRolloutPromoteAndRollback(t *testing.T) {
	knn, lin := testModels(t)
	dir := t.TempDir()
	knnPath := filepath.Join(dir, "knn.snap")
	linPath := filepath.Join(dir, "lin.snap")
	if err := knn.Sel.SaveSnapshot(knnPath, knn.Fp); err != nil {
		t.Fatal(err)
	}
	if err := lin.Sel.SaveSnapshot(linPath, lin.Fp); err != nil {
		t.Fatal(err)
	}

	servers := make([]*serve.Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		s, srv := newReplica(t, serve.Options{SnapshotPaths: []string{knnPath}, CacheSize: 64}, nil)
		servers[i], urls[i] = s, srv.URL
	}
	rt := newRouter(t, urls, nil)

	inEnvelope := RolloutRequest{
		Paths: []string{linPath}, Probes: 32, MaxDivergence: 1.0,
		Nodes: []int{2, 4, 6}, PPNs: []int{1, 4}, Msizes: []int64{16, 1024, 16384},
	}
	st := rt.Rollout(context.Background(), inEnvelope)
	if st.State != RolloutPromoted {
		t.Fatalf("promote leg ended in %q (reason %q, steps %v), want %q",
			st.State, st.Reason, st.Steps, RolloutPromoted)
	}
	if len(st.Failed) != 0 {
		t.Fatalf("promote leg failed on replicas %v", st.Failed)
	}
	for i, s := range servers {
		got := s.SnapshotPaths()
		if len(got) != 1 || got[0] != linPath {
			t.Fatalf("replica %d serves %v after promotion, want [%s]", i, got, linPath)
		}
	}
	if got := rt.RolloutStatus(); got.State != RolloutPromoted {
		t.Fatalf("RolloutStatus reports %q after promotion", got.State)
	}

	// Roll the fleet toward knn again, but probe far outside the training
	// envelope: every canary answer is a fallback, the canary's fallback
	// monitor breaches, and the machine must roll the canary back.
	outOfEnvelope := RolloutRequest{
		Paths: []string{knnPath}, Probes: 64, MaxDivergence: 1.0,
		Nodes: []int{64, 96}, PPNs: []int{16}, Msizes: []int64{1 << 22},
	}
	st = rt.Rollout(context.Background(), outOfEnvelope)
	if st.State != RolloutRolledBack {
		t.Fatalf("breach leg ended in %q (reason %q, steps %v), want %q",
			st.State, st.Reason, st.Steps, RolloutRolledBack)
	}
	for i, s := range servers {
		got := s.SnapshotPaths()
		if len(got) != 1 || got[0] != linPath {
			t.Fatalf("replica %d serves %v after rollback, want [%s]", i, got, linPath)
		}
	}

	// A candidate that cannot load dies on the canary without touching it.
	st = rt.Rollout(context.Background(), RolloutRequest{Paths: []string{filepath.Join(dir, "missing.snap")}})
	if st.State != RolloutFailed {
		t.Fatalf("missing-snapshot rollout ended in %q, want %q", st.State, RolloutFailed)
	}
	if got := servers[0].SnapshotPaths(); len(got) != 1 || got[0] != linPath {
		t.Fatalf("failed rollout changed the canary's snapshots to %v", got)
	}
}

func TestRouterReadyz(t *testing.T) {
	knn, _ := testModels(t)
	_, srv := newReplica(t, serve.Options{CacheSize: 64}, nil, knn)
	rt := newRouter(t, []string{srv.URL}, nil)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz %d with a ready replica, want 200", resp.StatusCode)
	}

	// Kill the only replica; the next probe sweep must flip the router.
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after the only replica died")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRolloutCancelledContext is the regression test for context threading
// through the rollout's outbound HTTP calls: a cancelled caller context must
// abort the state machine at its first replica call and leave every replica
// on its previous snapshots, not run the probe loop against dead air.
func TestRolloutCancelledContext(t *testing.T) {
	knn, lin := testModels(t)
	dir := t.TempDir()
	knnPath := filepath.Join(dir, "knn.snap")
	linPath := filepath.Join(dir, "lin.snap")
	if err := knn.Sel.SaveSnapshot(knnPath, knn.Fp); err != nil {
		t.Fatal(err)
	}
	if err := lin.Sel.SaveSnapshot(linPath, lin.Fp); err != nil {
		t.Fatal(err)
	}
	servers := make([]*serve.Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		s, srv := newReplica(t, serve.Options{SnapshotPaths: []string{knnPath}, CacheSize: 64}, nil)
		servers[i], urls[i] = s, srv.URL
	}
	rt := newRouter(t, urls, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := rt.Rollout(ctx, RolloutRequest{Paths: []string{linPath}})
	if st.State != RolloutFailed {
		t.Fatalf("cancelled rollout ended in %q (reason %q), want %q", st.State, st.Reason, RolloutFailed)
	}
	if !strings.Contains(st.Reason, "context canceled") {
		t.Fatalf("failure reason %q does not surface the cancellation", st.Reason)
	}
	for i, s := range servers {
		if got := s.SnapshotPaths(); len(got) != 1 || got[0] != knnPath {
			t.Fatalf("replica %d snapshots changed to %v under a cancelled rollout", i, got)
		}
	}
}
