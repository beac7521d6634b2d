package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/bench"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
)

// trainedModels holds two selectors trained once and shared by the tests in
// this package (training is the slow part; every test reads, none mutates).
var trainedModels struct {
	once sync.Once
	ds   *dataset.Dataset
	knn  *Model
	lin  *Model
	err  error
}

func testModels(t testing.TB) (*dataset.Dataset, *Model, *Model) {
	t.Helper()
	trainedModels.once.Do(func() {
		spec, err := dataset.SpecByName("d2", dataset.ScaleSmoke)
		if err != nil {
			trainedModels.err = err
			return
		}
		spec.Nodes = []int{2, 3, 4, 5, 6}
		spec.PPNs = []int{1, 4}
		spec.Msizes = []int64{16, 1024, 16384, 262144}
		ds, err := dataset.Generate(spec, bench.Options{MaxReps: 3, SyncJitter: 1e-7}, nil)
		if err != nil {
			trainedModels.err = err
			return
		}
		mach, set, err := spec.Resolve()
		if err != nil {
			trainedModels.err = err
			return
		}
		trainNodes := []int{2, 4, 6}
		for _, learner := range []string{"knn", "linear"} {
			sel, err := core.Train(ds, set, learner, trainNodes)
			if err != nil {
				trainedModels.err = err
				return
			}
			sel.SetFallback(mach, set)
			fp := core.FingerprintFor(ds, learner, trainNodes)
			m := &Model{Name: ModelName(fp), Sel: sel, Fp: fp}
			if learner == "knn" {
				trainedModels.knn = m
			} else {
				trainedModels.lin = m
			}
		}
		trainedModels.ds = ds
	})
	if trainedModels.err != nil {
		t.Fatal(trainedModels.err)
	}
	return trainedModels.ds, trainedModels.knn, trainedModels.lin
}

func testServer(t *testing.T, models ...*Model) *Server {
	t.Helper()
	s, err := New(Options{CacheSize: 1024, CacheShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Install(models...); err != nil {
		t.Fatal(err)
	}
	return s
}

func getJSON(t *testing.T, h http.Handler, url string, wantCode int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", url, rec.Code, wantCode, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, rec.Body)
		}
	}
}

func postJSON(t *testing.T, h http.Handler, url string, body any, wantCode int, out any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST %s: status %d (want %d): %s", url, rec.Code, wantCode, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", url, err, rec.Body)
		}
	}
}

func TestSelectEndpoint(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)

	var resp SelectResponse
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=1024", http.StatusOK, &resp)
	if resp.Model != knn.Name || resp.Coll == "" {
		t.Fatalf("bad identity in %+v", resp)
	}
	if resp.Label == "" {
		t.Fatalf("no decision label in %+v", resp)
	}
	if resp.Cached {
		t.Fatal("first query claims a cache hit")
	}

	// The identical query again must come from the cache with the same
	// decision.
	var again SelectResponse
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=1024", http.StatusOK, &again)
	if !again.Cached {
		t.Fatal("repeat query missed the cache")
	}
	if again.ConfigID != resp.ConfigID || again.Label != resp.Label {
		t.Fatalf("cached decision %+v differs from fresh %+v", again, resp)
	}

	// POST body form of the same query.
	var posted SelectResponse
	postJSON(t, s.Handler(), "/v1/select",
		SelectRequest{InstanceRequest: InstanceRequest{Nodes: 4, PPN: 4, Msize: 1024}},
		http.StatusOK, &posted)
	if posted.ConfigID != resp.ConfigID {
		t.Fatalf("POST decision %d, GET decision %d", posted.ConfigID, resp.ConfigID)
	}
}

func TestSelectValidation(t *testing.T) {
	_, knn, lin := testModels(t)
	s := testServer(t, knn, lin)

	// Invalid instances → 400 with a JSON error.
	var e errorResponse
	getJSON(t, s.Handler(), "/v1/select?model="+knn.Name+"&nodes=0&ppn=4&msize=64", http.StatusBadRequest, &e)
	if e.Error == "" {
		t.Fatal("400 without an error message")
	}
	getJSON(t, s.Handler(), "/v1/select?model="+knn.Name+"&nodes=4&ppn=4&msize=-1", http.StatusBadRequest, &e)
	getJSON(t, s.Handler(), "/v1/select?model="+knn.Name+"&nodes=four&ppn=4&msize=64", http.StatusBadRequest, &e)

	// Unknown model → 404; ambiguous empty model with two loaded → 404.
	getJSON(t, s.Handler(), "/v1/select?model=nope&nodes=4&ppn=4&msize=64", http.StatusNotFound, &e)
	if !strings.Contains(e.Error, "nope") {
		t.Fatalf("unhelpful 404: %q", e.Error)
	}
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=64", http.StatusNotFound, &e)

	// Unsupported method.
	req := httptest.NewRequest(http.MethodDelete, "/v1/select", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/select: status %d", rec.Code)
	}
}

func TestPredictEndpoint(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)

	var resp PredictResponse
	getJSON(t, s.Handler(), "/v1/predict?nodes=4&ppn=4&msize=1024", http.StatusOK, &resp)
	if len(resp.Predictions) != len(knn.Sel.Configs()) {
		t.Fatalf("%d predictions for %d configs", len(resp.Predictions), len(knn.Sel.Configs()))
	}
	for _, p := range resp.Predictions {
		if p.Label == "" {
			t.Fatalf("prediction without label: %+v", p)
		}
	}

	// An extrapolating instance falls back: the selection must still be
	// servable JSON with a null predicted time, not an encoding error.
	var fb SelectResponse
	getJSON(t, s.Handler(), "/v1/select?nodes=4000&ppn=4&msize=1024", http.StatusOK, &fb)
	if !fb.Fallback {
		t.Fatalf("nodes=4000 did not fall back: %+v", fb)
	}
	if fb.PredictedSeconds != nil {
		t.Fatalf("fallback carries a predicted time: %+v", fb)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)

	req := BatchRequest{Instances: []InstanceRequest{
		{Nodes: 4, PPN: 4, Msize: 1024},
		{Nodes: 0, PPN: 4, Msize: 64}, // invalid, must not sink the batch
		{Nodes: 4, PPN: 4, Msize: 1024},
	}}
	var resp BatchResponse
	postJSON(t, s.Handler(), "/v1/batch", req, http.StatusOK, &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Label == "" {
		t.Fatalf("valid instance failed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatal("invalid instance slipped through")
	}
	if !resp.Results[2].Cached {
		t.Fatal("repeated instance in one batch missed the cache")
	}

	var e errorResponse
	postJSON(t, s.Handler(), "/v1/batch", BatchRequest{}, http.StatusBadRequest, &e)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch: status %d", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, knn, lin := testModels(t)
	s := testServer(t, knn, lin)
	getJSON(t, s.Handler(), "/v1/select?model="+knn.Name+"&nodes=4&ppn=4&msize=1024", http.StatusOK, nil)

	var h HealthResponse
	getJSON(t, s.Handler(), "/healthz", http.StatusOK, &h)
	if h.Status != "ok" || len(h.Models) != 2 {
		t.Fatalf("healthz: %+v", h)
	}
	if h.Models[0].Name >= h.Models[1].Name {
		t.Fatalf("models not sorted: %q, %q", h.Models[0].Name, h.Models[1].Name)
	}
	if h.Models[0].Configs == 0 || h.Models[0].DatasetHash == "" {
		t.Fatalf("empty model info: %+v", h.Models[0])
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "serve_requests_total") {
		t.Fatalf("metrics text missing serve counters:\n%s", rec.Body)
	}

	var m map[string]any
	getJSON(t, s.Handler(), "/metrics?format=json", http.StatusOK, &m)
}

func TestReloadFromDisk(t *testing.T) {
	ds, knn, lin := testModels(t)
	_ = ds
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := knn.Sel.SaveSnapshot(path, knn.Fp); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{SnapshotPaths: []string{path}, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	var resp SelectResponse
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=1024", http.StatusOK, &resp)
	if resp.Model != knn.Name {
		t.Fatalf("serving %q, want %q", resp.Model, knn.Name)
	}
	gen := s.Registry().Gen()

	// Swap the file for a different learner and reload over HTTP.
	if err := lin.Sel.SaveSnapshot(path, lin.Fp); err != nil {
		t.Fatal(err)
	}
	postJSON(t, s.Handler(), "/v1/reload", struct{}{}, http.StatusOK, nil)
	if s.Registry().Gen() != gen+1 {
		t.Fatalf("generation %d after reload, want %d", s.Registry().Gen(), gen+1)
	}
	getJSON(t, s.Handler(), "/v1/select?nodes=4&ppn=4&msize=1024", http.StatusOK, &resp)
	if resp.Model != lin.Name {
		t.Fatalf("serving %q after reload, want %q", resp.Model, lin.Name)
	}
	if resp.Cached {
		t.Fatal("cache entry survived a reload (generation key broken)")
	}
}

// TestHotReloadZeroFailures is the acceptance test for atomic hot reload:
// concurrent clients hammer /v1/select while the model set is swapped over
// and over; not a single request may fail.
func TestHotReloadZeroFailures(t *testing.T) {
	_, knn, lin := testModels(t)
	s := testServer(t, knn)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var stop atomic.Bool
	var failures atomic.Int64
	var requests atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for !stop.Load() {
				resp, err := client.Get(srv.URL + "/v1/select?nodes=4&ppn=4&msize=1024")
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				var sr SelectResponse
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || sr.Label == "" {
					failures.Add(1)
				}
				_ = resp.Body.Close()
			}
		}()
	}

	// Swap between single-model generations; the empty model name stays
	// resolvable throughout, so every request has a servable world.
	deadline := time.Now().Add(500 * time.Millisecond)
	sets := [][]*Model{{knn}, {lin}}
	for i := 0; time.Now().Before(deadline); i++ {
		if err := s.Registry().Install(sets[i%2]...); err != nil {
			t.Errorf("install: %v", err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	if requests.Load() == 0 {
		t.Fatal("no requests issued")
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed during hot reloads", n, requests.Load())
	}
	if s.Registry().Gen() < 3 {
		t.Fatalf("only %d generations installed; reload loop too slow to prove anything", s.Registry().Gen())
	}
}

func TestLoadgen(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	rep, err := Loadgen(context.Background(), LoadgenOptions{
		URL:      srv.URL,
		Duration: 300 * time.Millisecond,
		Workers:  4,
		Seed:     42,
		Nodes:    []int{2, 4, 6},
		PPNs:     []int{1, 4},
		Msizes:   []int64{16, 1024},
	})
	if err != nil {
		t.Fatalf("loadgen: %v (report %+v)", err, rep)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.CachedHits == 0 {
		t.Fatal("a 12-instance pool never hit the cache")
	}
	if rep.QPS <= 0 || rep.LatencyP99Us <= 0 || rep.LatencyP50Us > rep.LatencyP99Us {
		t.Fatalf("implausible latency summary: %+v", rep)
	}

	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := rep.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	var back LoadgenReport
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
}

// TestLoadgenCancelledContext is the regression test for context threading:
// a cancelled context must stop the workers at the next request boundary (a
// pre-cancelled one issues no requests at all) instead of running out the
// full configured duration with orphaned in-flight requests.
func TestLoadgenCancelledContext(t *testing.T) {
	_, knn, _ := testModels(t)
	s := testServer(t, knn)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := Loadgen(ctx, LoadgenOptions{
		URL:      srv.URL,
		Duration: 30 * time.Second, // must NOT be waited out
		Workers:  4,
		Seed:     42,
		Nodes:    []int{2, 4, 6},
		PPNs:     []int{1, 4},
		Msizes:   []int64{16, 1024},
	})
	if err != nil {
		t.Fatalf("cancelled loadgen returned error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled loadgen ran for %s; cancellation not honored", elapsed)
	}
	if rep.Requests != 0 {
		t.Fatalf("pre-cancelled run issued %d requests, want 0", rep.Requests)
	}
}

// TestBatchIsScheduleIndependent posts one batch with repeated and invalid
// entries to servers answering batches on 1 and 16 goroutines: the results,
// their Cached flags and the audit-record sequence must be the same.
func TestBatchIsScheduleIndependent(t *testing.T) {
	_, knn, _ := testModels(t)
	distinct := []InstanceRequest{
		{Nodes: 2, PPN: 1, Msize: 16}, {Nodes: 3, PPN: 4, Msize: 1024},
		{Nodes: 4, PPN: 4, Msize: 16384}, {Nodes: 5, PPN: 1, Msize: 262144},
		{Nodes: 6, PPN: 4, Msize: 1024}, {Nodes: 2, PPN: 4, Msize: 262144},
	}
	var req BatchRequest
	for r := 0; r < 5; r++ {
		for j := range distinct {
			req.Instances = append(req.Instances, distinct[(j*(r+1))%len(distinct)])
		}
		req.Instances = append(req.Instances, InstanceRequest{Nodes: 0, PPN: 4, Msize: 64})
	}

	run := func(workers int) (BatchResponse, []audit.Record) {
		path := filepath.Join(t.TempDir(), "audit.jsonl")
		lg, err := audit.NewLogger(path, audit.LoggerOptions{Clock: func() time.Time { return time.Unix(1, 0) }})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Options{CacheSize: 1024, CacheShards: 4, BatchWorkers: workers, Audit: lg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Registry().Install(knn); err != nil {
			t.Fatal(err)
		}
		var resp BatchResponse
		postJSON(t, s.Handler(), "/v1/batch", req, http.StatusOK, &resp)
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := audit.ReadLog(path)
		if err != nil {
			t.Fatal(err)
		}
		var id string
		for i := range recs {
			if i == 0 {
				id = recs[0].RequestID
			} else if recs[i].RequestID != id {
				t.Fatalf("workers=%d: batch audited under request ids %q and %q", workers, id, recs[i].RequestID)
			}
			recs[i].RequestID, recs[i].LatencyUs = "", 0
		}
		return resp, recs
	}

	wantResp, wantRecs := run(1)
	seen := map[InstanceRequest]bool{}
	var valid []InstanceRequest
	for i, res := range wantResp.Results {
		in := req.Instances[i]
		if res.InstanceRequest != in {
			t.Fatalf("result %d answers %+v, want %+v", i, res.InstanceRequest, in)
		}
		if in.Nodes == 0 {
			if res.Error == "" {
				t.Fatalf("result %d: invalid instance answered", i)
			}
			continue
		}
		if res.Cached != seen[in] {
			t.Fatalf("result %d: Cached=%v, want %v (first occurrence misses, repeats hit)", i, res.Cached, seen[in])
		}
		seen[in] = true
		valid = append(valid, in)
	}
	if len(wantRecs) != len(valid) {
		t.Fatalf("%d audit records, want one per valid entry (%d)", len(wantRecs), len(valid))
	}
	for i, rec := range wantRecs {
		if in := (InstanceRequest{Nodes: rec.Nodes, PPN: rec.PPN, Msize: rec.Msize}); in != valid[i] {
			t.Fatalf("audit record %d is for %+v, want %+v (instance order)", i, in, valid[i])
		}
	}

	// Repeated, since a scheduling-dependent batch differs only sometimes.
	for rep := 0; rep < 3; rep++ {
		resp, recs := run(16)
		if !reflect.DeepEqual(resp, wantResp) {
			t.Fatal("16 workers: batch response differs from the serial one")
		}
		if !reflect.DeepEqual(recs, wantRecs) {
			t.Fatal("16 workers: audit records differ from the serial ones")
		}
	}
}
