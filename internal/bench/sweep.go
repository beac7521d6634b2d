package bench

import (
	"runtime"

	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/par"
)

// Cell is one independent measurement of a sweep grid: a configuration on an
// instance, with the noise seed and repetition cap already resolved. Cells
// are identified by their index in the slice passed to Sweep; that index is
// the commit order, so callers enumerate cells in the exact order a serial
// loop would measure them.
type Cell struct {
	Cfg     mpilib.Config
	Net     netmodel.Params
	Topo    netmodel.Topology
	Msize   int64
	Seed    uint64
	MaxReps int
	// Skip marks a cell whose result the caller already holds (typically
	// replayed from a resume journal): it is neither measured nor charged a
	// stop poll, and commit receives a zero Measurement for it.
	Skip bool
}

// Sweep measures every cell and invokes commit exactly once per cell, in
// cell order, from the calling goroutine. It is par.Run over the cells
// (DESIGN §10): measurement is sharded across GOMAXPROCS workers, each
// with its own Runner + Engine since Runners are single-goroutine, and
// because each cell's noise stream is derived from its content-addressed
// Seed and all observable effects — commit calls, Options.Metrics
// accounting, stop polls — happen in cell order, the output is
// byte-identical to a serial run at any worker count.
//
// stop, when non-nil, is polled once per non-Skip cell, in cell order,
// before that cell is handed to a worker; returning true abandons the cell
// and everything after it, and Sweep returns par.ErrStopped once the
// preceding cells have been committed. Because commits are in-order, the
// committed set is always a contiguous prefix — the property the resume
// journal relies on.
//
// A measurement error or a commit error aborts the sweep after the cells
// before it have been committed; the first error in cell order is returned,
// exactly as a serial loop would fail.
func Sweep(cells []Cell, opts Options, stop func() bool, commit func(i int, meas Measurement) error) error {
	workers := runtime.GOMAXPROCS(0)
	runners := make([]*Runner, workers)
	var poll func(i int) bool
	if stop != nil {
		poll = func(i int) bool { return !cells[i].Skip && stop() }
	}
	return par.Run(len(cells), workers, poll,
		func(w, i int) (Measurement, error) {
			c := cells[i]
			if c.Skip {
				return Measurement{}, nil
			}
			if runners[w] == nil {
				runners[w] = NewRunner(opts)
			}
			return runners[w].Measure(c.Cfg, c.Net, c.Topo, c.Msize, c.Seed, c.MaxReps)
		},
		func(i int, meas Measurement) error {
			if !cells[i].Skip {
				opts.Metrics.record(meas)
			}
			return commit(i, meas)
		})
}
