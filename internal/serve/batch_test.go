package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mpicollpred/internal/par"
)

// batchServer builds a server with models installed. A batch fans out on
// GOMAXPROCS goroutines, so the tests choose the worker count with
// par.AtProcs around the requests.
func batchServer(t *testing.T, models ...*Model) *Server {
	t.Helper()
	s, err := New(Options{CacheSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Install(models...); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBatchOrderingUnderConcurrency sends a large mixed batch through the
// parallel path and requires the response to line up with the request
// element for element: result i echoes instance i, valid entries carry a
// decision, invalid ones carry only their per-entry error.
func TestBatchOrderingUnderConcurrency(t *testing.T) {
	_, knn, _ := testModels(t)
	for _, workers := range []int{1, 4, 16} {
		s := batchServer(t, knn)
		req := BatchRequest{Instances: make([]InstanceRequest, 400)}
		for i := range req.Instances {
			if i%7 == 3 {
				// Every 7th entry is invalid and must fail alone.
				req.Instances[i] = InstanceRequest{Nodes: 0, PPN: 4, Msize: int64(i)}
				continue
			}
			req.Instances[i] = InstanceRequest{
				Nodes: 2 + i%4, PPN: 1 + i%2, Msize: int64(16 << (i % 5)),
			}
		}
		var resp BatchResponse
		par.AtProcs(workers, func() { postJSON(t, s.Handler(), "/v1/batch", req, http.StatusOK, &resp) })
		if len(resp.Results) != len(req.Instances) {
			t.Fatalf("workers=%d: %d results for %d instances", workers, len(resp.Results), len(req.Instances))
		}
		for i, res := range resp.Results {
			if res.InstanceRequest != req.Instances[i] {
				t.Fatalf("workers=%d: result %d echoes %+v, want %+v — ordering broken",
					workers, i, res.InstanceRequest, req.Instances[i])
			}
			if i%7 == 3 {
				if res.Error == "" || res.Label != "" {
					t.Fatalf("workers=%d: invalid entry %d not rejected per-entry: %+v", workers, i, res)
				}
			} else if res.Error != "" || res.Label == "" {
				t.Fatalf("workers=%d: valid entry %d failed: %+v", workers, i, res)
			}
		}
	}
}

// TestBatchMatchesSelect cross-checks the parallel batch path against
// one-at-a-time /v1/select decisions for the same instances.
func TestBatchMatchesSelect(t *testing.T) {
	_, knn, _ := testModels(t)
	s := batchServer(t, knn)
	req := BatchRequest{Instances: make([]InstanceRequest, 48)}
	for i := range req.Instances {
		req.Instances[i] = InstanceRequest{Nodes: 2 + i%4, PPN: 1 + i%2, Msize: int64(16 << (i % 5))}
	}
	var resp BatchResponse
	par.AtProcs(8, func() { postJSON(t, s.Handler(), "/v1/batch", req, http.StatusOK, &resp) })
	for i, in := range req.Instances {
		var single SelectResponse
		postJSON(t, s.Handler(), "/v1/select", SelectRequest{InstanceRequest: in}, http.StatusOK, &single)
		if resp.Results[i].ConfigID != single.ConfigID || resp.Results[i].Label != single.Label {
			t.Fatalf("instance %d: batch decision %+v, select decision %+v", i, resp.Results[i].Decision, single.Decision)
		}
	}
}

// TestBatchHammer fires concurrent batches at one server — meaningful under
// -race: the per-request worker sets, the shared selection cache, and the
// metrics registry all interleave here.
func TestBatchHammer(t *testing.T) {
	_, knn, _ := testModels(t)
	s := batchServer(t, knn)
	var wg sync.WaitGroup
	par.AtProcs(4, func() {
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					req := BatchRequest{Instances: make([]InstanceRequest, 37)}
					for i := range req.Instances {
						req.Instances[i] = InstanceRequest{
							Nodes: 2 + (c+i)%4, PPN: 1 + (round+i)%2, Msize: int64(16 << ((c + round + i) % 5)),
						}
					}
					var resp BatchResponse
					postJSON(t, s.Handler(), "/v1/batch", req, http.StatusOK, &resp)
					for i, res := range resp.Results {
						if res.InstanceRequest != req.Instances[i] || res.Error != "" || res.Label == "" {
							t.Errorf("client %d round %d entry %d: %+v", c, round, i, res)
							return
						}
					}
				}
			}(c)
		}
		wg.Wait()
	})
}

// TestLoadgenBatchMode drives the -batch loadgen path end to end against a
// live server.
func TestLoadgenBatchMode(t *testing.T) {
	_, knn, _ := testModels(t)
	s := batchServer(t, knn)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var (
		rep LoadgenReport
		err error
	)
	par.AtProcs(4, func() {
		rep, err = Loadgen(context.Background(), LoadgenOptions{
			URLs:     []string{srv.URL},
			Duration: 300 * time.Millisecond,
			Workers:  4,
			Seed:     7,
			Batch:    32,
			Nodes:    []int{2, 4, 6},
			PPNs:     []int{1, 4},
			Msizes:   []int64{16, 1024},
		})
	})
	if err != nil {
		t.Fatalf("loadgen: %v (report %+v)", err, rep)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.BatchSize != 32 || rep.Instances != rep.Requests*32 {
		t.Fatalf("instance accounting off: %+v", rep)
	}
	if rep.InstancesPerSec <= rep.QPS {
		t.Fatalf("batch mode moved fewer instances than round trips: %+v", rep)
	}
	if rep.CachedHits == 0 {
		t.Fatal("a 12-instance pool never hit the cache in batch mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_serve_batch.json")
	if err := rep.WriteFile(out); err != nil {
		t.Fatal(err)
	}
}
