package eval

import (
	"fmt"
	"sort"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
)

// NormalizedSeries is the data behind one panel of the paper's Figs. 4/6/7/8:
// for a fixed (nodes, ppn), the measured running times of the three
// strategies over the message sizes, normalized to the exhaustive best
// (best = 1.0 everywhere).
type NormalizedSeries struct {
	Nodes   int
	PPN     int
	Msizes  []int64
	Best    []float64 // all 1.0, kept for symmetric rendering
	Default []float64
	Pred    []float64
}

// NormalizedRuntime builds the panel series for one allocation using a
// trained strategy.
func NormalizedRuntime(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	strat core.Strategy, nodes, ppn int) (NormalizedSeries, error) {

	out := NormalizedSeries{Nodes: nodes, PPN: ppn}
	msizes := append([]int64(nil), ds.Spec.Msizes...)
	sort.Slice(msizes, func(i, j int) bool { return msizes[i] < msizes[j] })
	insts := make([]dataset.Instance, len(msizes))
	for i, m := range msizes {
		insts[i] = dataset.Instance{Nodes: nodes, PPN: ppn, Msize: m}
	}
	results, err := scoreInstances(ds, mach, set, strat, insts)
	if err != nil {
		return out, err
	}
	for _, r := range results {
		out.Msizes = append(out.Msizes, r.Msize)
		out.Best = append(out.Best, 1.0)
		out.Default = append(out.Default, r.DefaultT/r.BestT)
		out.Pred = append(out.Pred, r.PredT/r.BestT)
	}
	return out, nil
}

// AlgChoice is one cell of the paper's Fig. 5: the algorithm id chosen by a
// learner for one (nodes × ppn, msize) cell.
type AlgChoice struct {
	Learner string
	Nodes   int
	PPN     int
	Msize   int64
	AlgID   int
}

// AlgorithmMap reproduces Fig. 5: for each trained selector, the predicted
// algorithm id over the (config × msize) grid of the given test node counts.
func AlgorithmMap(ds *dataset.Dataset, sels []*core.Selector, testNodes []int) []AlgChoice {
	var out []AlgChoice
	msizes := append([]int64(nil), ds.Spec.Msizes...)
	sort.Slice(msizes, func(i, j int) bool { return msizes[i] < msizes[j] })
	for _, sel := range sels {
		for _, n := range testNodes {
			for _, ppn := range ds.Spec.PPNs {
				for _, m := range msizes {
					p := sel.Select(n, ppn, m)
					out = append(out, AlgChoice{Learner: sel.Learner, Nodes: n, PPN: ppn, Msize: m, AlgID: p.AlgID})
				}
			}
		}
	}
	return out
}

// ChainSpeedupRow is one point of the paper's Fig. 2: the measured speedup
// of a chain-broadcast configuration over the linear broadcast.
type ChainSpeedupRow struct {
	Seg     int64
	Chains  int
	Msize   int64
	Speedup float64
}

// ChainSpeedup reproduces Fig. 2 from a measured broadcast dataset: for the
// given allocation, the speedup of every chain configuration (algorithm 2)
// with respect to the basic linear broadcast (algorithm 1), across message
// sizes.
func ChainSpeedup(ds *dataset.Dataset, set *mpilib.CollectiveSet, nodes, ppn int) ([]ChainSpeedupRow, error) {
	if ds.Spec.Coll != mpilib.Bcast {
		return nil, fmt.Errorf("eval: ChainSpeedup needs a bcast dataset, got %s", ds.Spec.Coll)
	}
	var linearID int
	for _, c := range set.Configs {
		if c.AlgID == 1 {
			linearID = c.ID
			break
		}
	}
	if linearID == 0 {
		return nil, fmt.Errorf("eval: no linear broadcast in the portfolio")
	}
	var out []ChainSpeedupRow
	msizes := append([]int64(nil), ds.Spec.Msizes...)
	sort.Slice(msizes, func(i, j int) bool { return msizes[i] < msizes[j] })
	for _, c := range set.Configs {
		if c.AlgID != 2 {
			continue
		}
		for _, m := range msizes {
			lin, ok1 := ds.Lookup(linearID, nodes, ppn, m)
			ch, ok2 := ds.Lookup(c.ID, nodes, ppn, m)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("eval: missing measurement for %dx%d m=%d", nodes, ppn, m)
			}
			out = append(out, ChainSpeedupRow{
				Seg: c.Params.Seg, Chains: c.Params.Fanout, Msize: m, Speedup: lin / ch,
			})
		}
	}
	return out, nil
}
