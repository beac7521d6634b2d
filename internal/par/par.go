// Package par is the pipeline's one ordered fan-out: independent work items
// run on a bounded set of goroutines, and their results come back to the
// caller in index order, exactly as a serial loop would produce them. The
// benchmark's (configuration, instance) cells, the per-configuration fits of
// the tuning matrix, the analyzer's per-package passes, /v1/batch decisions
// and the Intel default decision's portfolio search all run through Run, so
// their outputs are byte-identical at any worker count (DESIGN §10).
// SelfCheck is the CLIs' -benchout proof of that.
package par

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrStopped reports that the stop hook ended a Run early. Every item before
// the stop point was committed in order; nothing at or after it was.
var ErrStopped = errors.New("par: stopped")

// Run calls work(w, i) for each i in [0,n) on min(workers,n) goroutines — w
// in [0,workers) names the goroutine, for per-worker state such as a
// simulator runner — and commit(i, v) on the caller's goroutine in index
// order. workers <= 1 runs inline with no goroutines.
//
// stop, if non-nil, is polled in index order before item i is dispatched;
// true ends the run with ErrStopped once [0,i) is committed, so the
// committed items are always a contiguous prefix.
//
// The first error in index order, from work or commit, is returned after the
// items before it are committed, just as a serial loop would fail. Once an
// item fails, no later item starts, and Run drains its goroutines before it
// returns. A result is dropped as soon as it is committed, so memory holds
// only the results waiting on an earlier item.
func Run[T any](n, workers int, stop func(i int) bool, work func(w, i int) (T, error), commit func(i int, v T) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if stop != nil && stop(i) {
				return ErrStopped
			}
			v, err := work(0, i)
			if err != nil {
				return err
			}
			if err := commit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		v    T
		err  error
		done bool
	}
	var (
		mu    sync.Mutex
		cond  = sync.NewCond(&mu)
		slots = make([]slot, n)
		// end is the index the stop hook refused; n while none has.
		// Guarded by mu.
		end = n
		// Items at or after limit are neither dispatched nor worked: it
		// drops to i+1 when item i fails and to 0 when Run returns.
		limit atomic.Int64
		wg    sync.WaitGroup
	)
	limit.Store(int64(n))
	// The buffer bounds how far dispatch runs ahead of the workers, so a
	// stop takes effect within about 2×workers items.
	jobs := make(chan int, workers)
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := 0; int64(i) < limit.Load(); i++ {
			if stop != nil && stop(i) {
				mu.Lock()
				end = i
				cond.Broadcast()
				mu.Unlock()
				return
			}
			jobs <- i
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				s := slot{done: true}
				if int64(i) < limit.Load() {
					s.v, s.err = work(w, i)
					if s.err != nil {
						lower(&limit, int64(i)+1)
					}
				}
				mu.Lock()
				slots[i] = s
				cond.Broadcast()
				mu.Unlock()
			}
		}(w)
	}
	defer func() {
		limit.Store(0)
		wg.Wait()
	}()

	for i := 0; i < n; i++ {
		mu.Lock()
		for !slots[i].done && i < end {
			//mpicollvet:ignore lockscope sync.Cond.Wait atomically releases mu while parked and reacquires before returning; holding it here is the condition-variable contract
			cond.Wait()
		}
		s := slots[i]
		slots[i] = slot{}
		mu.Unlock()
		if !s.done {
			return ErrStopped
		}
		if s.err != nil {
			return s.err
		}
		if err := commit(i, s.v); err != nil {
			return err
		}
	}
	return nil
}

// lower sets a to v unless it already holds something smaller.
func lower(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
