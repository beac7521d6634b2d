package bench

import (
	"errors"
	"fmt"
	"testing"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
)

// sweepGrid builds a small but diverse cell grid: every broadcast
// configuration across two topologies and two message sizes, with
// content-derived seeds exactly as the dataset generator produces them.
func sweepGrid(t *testing.T) []Cell {
	t.Helper()
	mach := machine.Hydra()
	s, err := mpilib.OpenMPI().Collective(mpilib.Bcast)
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for _, topo := range []netmodel.Topology{{Nodes: 2, PPN: 2}, {Nodes: 3, PPN: 2}} {
		for _, m := range []int64{64, 4096} {
			for _, cfg := range s.Configs {
				seed := sim.Seed(uint64(cfg.ID), uint64(topo.Nodes), uint64(topo.PPN), uint64(m))
				cells = append(cells, Cell{
					Cfg: cfg, Net: mach.Net, Topo: topo,
					Msize: m, Seed: seed, MaxReps: 3,
				})
			}
		}
	}
	if len(cells) < 8 {
		t.Fatalf("grid too small: %d cells", len(cells))
	}
	return cells
}

// runSweep collects every committed measurement in order.
func runSweep(t *testing.T, cells []Cell, opts Options) ([]Measurement, *Metrics) {
	t.Helper()
	reg := obs.NewRegistry()
	met := NewMetrics(reg, obs.Labels{"dataset": "sweep-test"})
	opts.Metrics = met
	out := make([]Measurement, 0, len(cells))
	err := Sweep(cells, opts, nil, func(i int, meas Measurement) error {
		if i != len(out) {
			t.Errorf("commit out of order: got cell %d, want %d", i, len(out))
		}
		out = append(out, meas)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, met
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	cells := sweepGrid(t)
	opts := Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7}

	var (
		want, got       []Measurement
		wantMet, gotMet *Metrics
	)
	par.AtProcs(1, func() { want, wantMet = runSweep(t, cells, opts) })

	for _, w := range []int{2, 4, 7} {
		par.AtProcs(w, func() { got, gotMet = runSweep(t, cells, opts) })
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d commits, want %d", w, len(got), len(want))
		}
		for i := range want {
			if len(got[i].Times) != len(want[i].Times) {
				t.Fatalf("workers=%d cell %d: %d reps, want %d", w, i, len(got[i].Times), len(want[i].Times))
			}
			for r := range want[i].Times {
				if got[i].Times[r] != want[i].Times[r] {
					t.Fatalf("workers=%d cell %d rep %d: %g != %g", w, i, r, got[i].Times[r], want[i].Times[r])
				}
			}
			if got[i].Consumed != want[i].Consumed || got[i].Exhausted != want[i].Exhausted {
				t.Fatalf("workers=%d cell %d accounting differs", w, i)
			}
		}
		// Metrics are recorded at commit time, so the registry contents are
		// bit-identical too — including the order-sensitive float gauge.
		if gotMet.Measurements.Value() != wantMet.Measurements.Value() ||
			gotMet.Reps.Value() != wantMet.Reps.Value() ||
			gotMet.Consumed.Value() != wantMet.Consumed.Value() ||
			gotMet.Exhausted.Value() != wantMet.Exhausted.Value() ||
			gotMet.RepSeconds.Count() != wantMet.RepSeconds.Count() ||
			gotMet.RepSeconds.Sum() != wantMet.RepSeconds.Sum() {
			t.Errorf("workers=%d: metrics diverge from serial", w)
		}
	}
}

// TestSweepMatchesFreshEngineRuns shards a grid across pooled workers and
// checks every cell against a brand-new Runner + Engine — any pair-map,
// program-scratch or cache state leaking between a worker's consecutive
// cells would show up as a mismatch. Run under -race it also exercises the
// publish/commit synchronization.
func TestSweepMatchesFreshEngineRuns(t *testing.T) {
	cells := sweepGrid(t)
	opts := Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7}
	var got []Measurement
	par.AtProcs(4, func() { got, _ = runSweep(t, cells, opts) })
	for i, c := range cells {
		fresh, err := NewRunner(Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7}).
			Measure(c.Cfg, c.Net, c.Topo, c.Msize, c.Seed, c.MaxReps)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i].Times) != len(fresh.Times) {
			t.Fatalf("cell %d: %d reps vs fresh %d", i, len(got[i].Times), len(fresh.Times))
		}
		for r := range fresh.Times {
			if got[i].Times[r] != fresh.Times[r] {
				t.Fatalf("cell %d rep %d: pooled %v != fresh %v (leaked engine state?)",
					i, r, got[i].Times[r], fresh.Times[r])
			}
		}
	}
}

func TestSweepStopCommitsContiguousPrefix(t *testing.T) {
	cells := sweepGrid(t)
	for _, w := range []int{1, 4} {
		polls := 0
		stop := func() bool {
			polls++
			return polls > 3
		}
		var (
			committed []int
			err       error
		)
		par.AtProcs(w, func() {
			err = Sweep(cells, Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7},
				stop, func(i int, meas Measurement) error {
					committed = append(committed, i)
					return nil
				})
		})
		if !errors.Is(err, par.ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want par.ErrStopped", w, err)
		}
		// The stop hook fired on the 4th poll, so exactly cells 0..2 were
		// committed — in order, regardless of worker count.
		if len(committed) != 3 {
			t.Fatalf("workers=%d: committed %v, want exactly [0 1 2]", w, committed)
		}
		for i, id := range committed {
			if id != i {
				t.Fatalf("workers=%d: committed %v not a contiguous prefix", w, committed)
			}
		}
	}
}

func TestSweepSkipCellsNotMeasuredNotPolled(t *testing.T) {
	cells := sweepGrid(t)
	// Mark every other cell as already known (the resume-replay case).
	for i := range cells {
		if i%2 == 1 {
			cells[i] = Cell{Skip: true}
		}
	}
	freshCount := len(cells) / 2
	if len(cells)%2 == 1 {
		freshCount++
	}
	for _, w := range []int{1, 4} {
		polls := 0
		stop := func() bool { polls++; return false }
		var (
			commits int
			err     error
		)
		par.AtProcs(w, func() {
			err = Sweep(cells, Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7},
				stop, func(i int, meas Measurement) error {
					commits++
					if cells[i].Skip && meas.Reps() != 0 {
						t.Errorf("workers=%d: skip cell %d was measured", w, i)
					}
					if !cells[i].Skip && meas.Reps() == 0 {
						t.Errorf("workers=%d: fresh cell %d has no reps", w, i)
					}
					return nil
				})
		})
		if err != nil {
			t.Fatal(err)
		}
		if commits != len(cells) {
			t.Errorf("workers=%d: %d commits, want %d", w, commits, len(cells))
		}
		if polls != freshCount {
			t.Errorf("workers=%d: stop polled %d times, want once per fresh cell (%d)", w, polls, freshCount)
		}
	}
}

func TestSweepCommitErrorAborts(t *testing.T) {
	cells := sweepGrid(t)
	boom := fmt.Errorf("journal full")
	for _, w := range []int{1, 4} {
		var (
			commits int
			err     error
		)
		par.AtProcs(w, func() {
			err = Sweep(cells, Options{MaxReps: 3, MaxTime: 100, SyncJitter: 1e-7},
				nil, func(i int, meas Measurement) error {
					if i == 2 {
						return boom
					}
					commits++
					return nil
				})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the commit error", w, err)
		}
		if commits != 2 {
			t.Errorf("workers=%d: %d successful commits before the error, want 2", w, commits)
		}
	}
}
