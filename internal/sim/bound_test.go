package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// boundPrograms returns small programs with distinct shapes: a ping-pong, a
// linear fan-out with a rendezvous-sized message, and a relay chain with
// local compute.
func boundPrograms() map[string]func() *Program {
	return map[string]func() *Program{
		"pingpong": func() *Program {
			b := NewBuilder(2, false)
			b.Send(0, 1, 1000)
			b.Recv(1, 0, 1000)
			b.Send(1, 0, 1000)
			b.Recv(0, 1, 1000)
			return b.Build()
		},
		"fanout": func() *Program {
			b := NewBuilder(5, false)
			for r := 1; r < 5; r++ {
				b.Send(0, r, 2<<20)
				b.Recv(r, 0, 2<<20)
			}
			return b.Build()
		},
		"chain": func() *Program {
			b := NewBuilder(6, false)
			for r := 0; r < 5; r++ {
				b.Compute(r, 5000)
				b.Send(r, r+1, 100)
				b.Recv(r+1, r, 100)
			}
			return b.Build()
		},
	}
}

var boundStarts = map[string]func(p int) []float64{
	"zero": func(int) []float64 { return nil },
	"outliers": func(p int) []float64 {
		s := make([]float64, p)
		for r := range s {
			s[r] = -float64(r%3) * 0.75 // clock outliers below zero
		}
		return s
	},
	"shifted": func(p int) []float64 {
		s := make([]float64, p)
		for r := range s {
			s[r] = 10 + float64(r)*0.5
		}
		return s
	},
	"negative": func(p int) []float64 {
		s := make([]float64, p)
		for r := range s {
			s[r] = -10
		}
		return s
	},
}

// TestRunWithinContract checks RunWithin against Run over a sweep of bounds,
// including start times shifted above and below zero: it returns
// ErrExceeded only when the true makespan exceeds the bound, and otherwise
// exactly Run's result and event count. A bound at or above the makespan
// never aborts.
func TestRunWithinContract(t *testing.T) {
	for pname, build := range boundPrograms() {
		for sname, starts := range boundStarts {
			prog := build()
			start := starts(prog.NumRanks())
			e := NewEngine()
			e.CollectStats(true)
			want, err := e.Run(prog, newTestModel(), start, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", pname, sname, err)
			}
			cut := 0
			for _, f := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 1.5} {
				bound := want.Time * f
				got, err := e.RunWithin(prog, newTestModel(), start, bound)
				switch {
				case errors.Is(err, ErrExceeded):
					cut++
					if want.Time <= bound {
						t.Errorf("%s/%s bound %v: cut although the makespan is %v", pname, sname, bound, want.Time)
					}
				case err != nil:
					t.Fatalf("%s/%s bound %v: %v", pname, sname, bound, err)
				case !reflect.DeepEqual(got, want):
					t.Errorf("%s/%s bound %v: result %+v, Run gave %+v", pname, sname, bound, got, want)
				}
			}
			for _, bound := range []float64{want.Time, math.Nextafter(want.Time, math.Inf(1)), 2 * want.Time, math.Inf(1)} {
				got, err := e.RunWithin(prog, newTestModel(), start, bound)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s bound %v >= makespan %v: got %+v, %v", pname, sname, bound, want.Time, got, err)
				}
			}
			// Every program here has events queued well after its earliest
			// start, so a zero bound must cut it. With the bound taken
			// absolutely instead of from the earliest start, the "shifted"
			// starts would cut too eagerly and the "negative" ones never.
			if cut == 0 {
				t.Errorf("%s/%s: no bound below the makespan %v cut the run", pname, sname, want.Time)
			}
			// The engine stays reusable after a cut.
			if got, err := e.Run(prog, newTestModel(), start, nil); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Run after a cut gave %+v, %v", pname, sname, got, err)
			}
		}
	}
}

func TestRunWithinReportsDeadlock(t *testing.T) {
	b := NewBuilder(2, false)
	b.Recv(0, 1, 10)
	b.Recv(1, 0, 10)
	if _, err := NewEngine().RunWithin(b.Build(), newTestModel(), nil, math.Inf(1)); err == nil || errors.Is(err, ErrExceeded) {
		t.Fatalf("unbounded deadlocked run: err %v, want the deadlock", err)
	}
}
