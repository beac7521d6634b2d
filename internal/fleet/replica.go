// Replica state and the active health prober. The router routes only to
// replicas whose readiness probe (/readyz) passed recently and whose
// breaker admits traffic; liveness (/healthz) is tracked separately so
// /fleet/status can distinguish "process up but draining" from "gone".

package fleet

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Replica is one mpicollserve backend.
type Replica struct {
	// URL is the replica base URL (e.g. "http://127.0.0.1:18081").
	URL string

	idx      int
	alive    atomic.Bool // /healthz answered 200
	ready    atomic.Bool // /readyz answered 200
	inflight atomic.Int64
	breaker  *Breaker

	requests      atomic.Int64 // proxied attempts sent here
	failures      atomic.Int64 // transport errors + 5xx answers
	hedges        atomic.Int64 // hedge attempts sent here
	probeFailures atomic.Int64 // liveness/readiness probes failed
}

// ReplicaStatus is one replica's row in /fleet/status.
type ReplicaStatus struct {
	URL           string `json:"url"`
	Alive         bool   `json:"alive"`
	Ready         bool   `json:"ready"`
	Breaker       string `json:"breaker"`
	BreakerOpens  uint64 `json:"breaker_opens"`
	Inflight      int64  `json:"inflight"`
	Requests      int64  `json:"requests"`
	Failures      int64  `json:"failures"`
	Hedges        int64  `json:"hedges"`
	ProbeFailures int64  `json:"probe_failures"`
}

func (r *Replica) status() ReplicaStatus {
	opens, _ := r.breaker.Stats()
	return ReplicaStatus{
		URL:           r.URL,
		Alive:         r.alive.Load(),
		Ready:         r.ready.Load(),
		Breaker:       r.breaker.State().String(),
		BreakerOpens:  opens,
		Inflight:      r.inflight.Load(),
		Requests:      r.requests.Load(),
		Failures:      r.failures.Load(),
		Hedges:        r.hedges.Load(),
		ProbeFailures: r.probeFailures.Load(),
	}
}

// prober polls every replica's /healthz and /readyz on a fixed interval.
type prober struct {
	replicas []*Replica
	client   *http.Client
	interval time.Duration
	stop     chan struct{}
	done     sync.WaitGroup
}

func newProber(replicas []*Replica, client *http.Client, interval time.Duration) *prober {
	return &prober{
		replicas: replicas,
		client:   client,
		interval: interval,
		stop:     make(chan struct{}),
	}
}

// start probes every replica once synchronously (so the router is born with
// fresh state instead of routing blind until the first tick) and then keeps
// probing in the background.
func (p *prober) start() {
	p.sweep()
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sweep()
			}
		}
	}()
}

func (p *prober) close() {
	close(p.stop)
	p.done.Wait()
}

// sweep probes all replicas concurrently; one wedged replica must not delay
// marking its siblings healthy.
func (p *prober) sweep() {
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			p.probe(r)
		}(r)
	}
	wg.Wait()
}

func (p *prober) probe(r *Replica) {
	alive := p.get(r.URL + "/healthz")
	ready := alive && p.get(r.URL+"/readyz")
	if !alive || !ready {
		r.probeFailures.Add(1)
	}
	r.alive.Store(alive)
	r.ready.Store(ready)
}

// get reports whether url answers 200 within the probe timeout.
func (p *prober) get(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
