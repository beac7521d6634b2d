package par

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collect runs Run and returns the committed indices in commit order.
func collect(t *testing.T, n, workers int, stop func(int) bool, work func(w, i int) (int, error)) ([]int, error) {
	t.Helper()
	var got []int
	err := Run(n, workers, stop, work, func(i int, v int) error {
		if v != i*i {
			t.Errorf("commit(%d) got %d, want %d", i, v, i*i)
		}
		got = append(got, i)
		return nil
	})
	return got, err
}

func TestRunCommitsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(workers)))
		delays := make([]time.Duration, 200)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		}
		got, err := collect(t, len(delays), workers, nil, func(w, i int) (int, error) {
			if w < 0 || w >= workers {
				t.Errorf("worker %d out of [0,%d)", w, workers)
			}
			time.Sleep(delays[i])
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("workers=%d: commit %d was item %d", workers, i, id)
			}
		}
		if len(got) != len(delays) {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(got), len(delays))
		}
	}
}

func TestRunEarlierFailureWins(t *testing.T) {
	early, late := errors.New("item 3"), errors.New("item 10")
	for _, workers := range []int{1, 4} {
		got, err := collect(t, 40, workers, nil, func(_, i int) (int, error) {
			switch i {
			case 3:
				// Fails well after item 10 has already failed.
				time.Sleep(20 * time.Millisecond)
				return 0, early
			case 10:
				return 0, late
			}
			return i * i, nil
		})
		if !errors.Is(err, early) {
			t.Fatalf("workers=%d: err = %v, want the item-3 error", workers, err)
		}
		if fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("workers=%d: committed %v, want [0 1 2]", workers, got)
		}
	}
}

func TestRunCommitErrorAborts(t *testing.T) {
	boom := errors.New("journal full")
	for _, workers := range []int{1, 4} {
		var commits []int
		err := Run(50, workers, nil, func(_, i int) (int, error) { return i, nil },
			func(i int, _ int) error {
				commits = append(commits, i)
				if i == 5 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the commit error", workers, err)
		}
		if fmt.Sprint(commits) != "[0 1 2 3 4 5]" {
			t.Fatalf("workers=%d: commit called for %v, want [0 1 2 3 4 5]", workers, commits)
		}
	}
}

func TestRunStopCommitsContiguousPrefix(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var polls []int
		got, err := collect(t, 100, workers, func(i int) bool {
			polls = append(polls, i)
			return i == 7
		}, func(_, i int) (int, error) {
			if i >= 7 {
				t.Errorf("workers=%d: item %d worked after the stop", workers, i)
			}
			return i * i, nil
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", workers, err)
		}
		if fmt.Sprint(got) != "[0 1 2 3 4 5 6]" {
			t.Fatalf("workers=%d: committed %v, want [0 1 2 3 4 5 6]", workers, got)
		}
		if fmt.Sprint(polls) != "[0 1 2 3 4 5 6 7]" {
			t.Fatalf("workers=%d: stop polled for %v, want once per item up to 7, in order", workers, polls)
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestRunSerialStaysOnCallerGoroutine(t *testing.T) {
	caller := goroutineID()
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -2}, {1, 8}} {
		var order []string
		err := Run(c.n, c.workers, func(i int) bool {
			order = append(order, fmt.Sprint("stop", i))
			return false
		}, func(w, i int) (int, error) {
			if id := goroutineID(); id != caller || w != 0 {
				t.Errorf("%+v: work(%d, %d) on goroutine %s, want worker 0 on caller %s", c, w, i, id, caller)
			}
			order = append(order, fmt.Sprint("work", i))
			return i, nil
		}, func(i int, _ int) error {
			order = append(order, fmt.Sprint("commit", i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Inline execution interleaves strictly: poll, work, commit per item.
		var want []string
		for i := 0; i < c.n; i++ {
			want = append(want, fmt.Sprint("stop", i), fmt.Sprint("work", i), fmt.Sprint("commit", i))
		}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("%+v: call order %v, want %v", c, order, want)
		}
	}
}

func TestRunDrainsAndStopsWorkAfterError(t *testing.T) {
	boom := errors.New("item 1")
	before := runtime.NumGoroutine()
	var inFlight, started atomic.Int64
	release, twoStarted := make(chan struct{}), make(chan struct{})
	err := Run(1000, 4, nil, func(_, i int) (int, error) {
		started.Add(1)
		inFlight.Add(1)
		defer inFlight.Add(-1)
		switch i {
		case 0:
			// Held until item 1 has failed and the others had time to run on.
			<-release
		case 1:
			<-twoStarted
			go func() {
				time.Sleep(50 * time.Millisecond)
				close(release)
			}()
			return 0, boom
		case 2:
			// Still running when the caller reaches item 1's error.
			close(twoStarted)
			time.Sleep(200 * time.Millisecond)
		default:
			time.Sleep(time.Millisecond)
		}
		return i, nil
	}, func(int, int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the item-1 error", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d work calls still running after Run returned", n)
	}
	// Dispatch runs at most about 2×workers items ahead; without the stop
	// on failure the two free workers would churn through ~100 items while
	// item 0 is held.
	if n := started.Load(); n > 20 {
		t.Errorf("%d items started although item 1 failed early", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before Run, %d after", before, after)
	}
}

func TestRunEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(0, workers, func(int) bool {
			t.Error("stop polled with no items")
			return true
		}, func(int, int) (int, error) {
			t.Error("work called with no items")
			return 0, nil
		}, func(int, int) error {
			t.Error("commit called with no items")
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
