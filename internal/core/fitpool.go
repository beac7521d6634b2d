// The fit worker pool: Train's per-configuration model fits are
// embarrassingly parallel (one independent regression per configuration),
// so they run on a bounded pool of long-lived workers. One pool is shared
// by every concurrent Train call — the tuning matrix (learner × collective)
// of mpicolltune trains many selectors at once without oversubscribing the
// machine — and the pool reports its size and per-worker busy time into the
// observability registry.
//
// Parallel fitting is bit-identical to serial fitting: workers only compute
// (model, envelope, wall time) for their configuration, and Train commits
// all results in configuration order on a single goroutine, so map
// contents, envelope merges, FitWall accumulation order, and quarantine
// records are independent of worker count and scheduling.

package core

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"mpicollpred/internal/ml"
	"mpicollpred/internal/obs"
)

// FitPool is a bounded pool of model-fitting workers. It is safe for
// concurrent Train calls to share one pool; submitted work must never
// itself submit to the same pool (Train does not).
type FitPool struct {
	workers int
	jobs    chan func()
	wg      sync.WaitGroup
	once    sync.Once
}

// NewFitPool starts a pool with the given number of workers; workers <= 0
// means GOMAXPROCS. The pool reports `core_fit_workers` and accumulates
// `core_fit_worker_busy_seconds{worker=...}` so utilization per worker is
// visible in a metrics snapshot.
func NewFitPool(workers int) *FitPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &FitPool{workers: workers, jobs: make(chan func())}
	obs.Default.Gauge("core_fit_workers", nil).Set(float64(workers))
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		busy := obs.Default.Gauge("core_fit_worker_busy_seconds",
			obs.Labels{"worker": strconv.Itoa(i)})
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				t0 := time.Now()
				f()
				busy.Add(time.Since(t0).Seconds())
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *FitPool) Workers() int { return p.workers }

// submit blocks until a worker accepts the job.
func (p *FitPool) submit(f func()) { p.jobs <- f }

// fitResult is one configuration's outcome, produced by a pool worker and
// committed by the Train or Refit goroutine.
type fitResult struct {
	m    ml.Regressor
	env  Envelope
	wall float64
	err  error
}

// fitAll fits a fresh learner to each of n training sets on the pool, where
// data(i) returns set i, and returns the outcomes in input order. A learner
// panic comes back as an errLearnerPanic error. Each worker writes only its
// own slot; wg.Wait orders those writes before the caller's commit loop
// reads them.
func (p *FitPool) fitAll(learner string, n int, data func(i int) ([][]float64, []float64)) []fitResult {
	results := make([]fitResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		x, y := data(i)
		wg.Add(1)
		p.submit(func() {
			defer wg.Done()
			m, err := ml.New(learner)
			if err != nil {
				results[i].err = err
				return
			}
			f0 := time.Now()
			if err := safeFit(m, x, y); err != nil {
				results[i].err = err
				return
			}
			results[i] = fitResult{m: m, env: newEnvelope(x, y), wall: time.Since(f0).Seconds()}
		})
	}
	wg.Wait()
	return results
}

// Close stops the workers after the queue drains. A closed pool must not
// receive further Train calls.
func (p *FitPool) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}

var (
	defaultPoolMu sync.Mutex
	defaultPool   *FitPool
)

// DefaultFitPool returns the package-level pool Train uses when no explicit
// pool is given, creating it with GOMAXPROCS workers on first use.
func DefaultFitPool() *FitPool {
	defaultPoolMu.Lock()
	defer defaultPoolMu.Unlock()
	if defaultPool == nil {
		//mpicollvet:ignore lockscope first-use init: blocking other callers until the pool exists is the point
		defaultPool = NewFitPool(0)
	}
	return defaultPool
}

// SetFitWorkers replaces the default pool with one of the given size
// (<= 0 means GOMAXPROCS; 1 fits serially). It is meant for CLI startup
// (the -fitworkers flag) and must not race with in-flight Train calls.
func SetFitWorkers(n int) {
	defaultPoolMu.Lock()
	defer defaultPoolMu.Unlock()
	if defaultPool != nil {
		//mpicollvet:ignore lockscope startup-only swap; draining the old pool under the lock keeps DefaultFitPool callers off the dying pool
		defaultPool.Close()
	}
	//mpicollvet:ignore lockscope startup-only swap, see Close above
	defaultPool = NewFitPool(n)
}
