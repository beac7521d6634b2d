package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
)

// InstanceResult compares the three strategies on one test instance. All
// times are measured values from the dataset (the paper measured the entire
// grid beforehand, so the runtime of any chosen configuration is known).
type InstanceResult struct {
	dataset.Instance
	BestID    int
	BestT     float64
	DefaultID int
	DefaultT  float64
	PredID    int
	PredAlgID int
	PredT     float64
	// ModelT is the model's *predicted* time for the chosen configuration
	// (PredT is its measured time).
	ModelT float64
}

// Speedup is the paper's headline metric: measured default time over
// measured predicted-configuration time (> 1 means the prediction wins).
func (r InstanceResult) Speedup() float64 { return r.DefaultT / r.PredT }

// Evaluation holds the per-instance comparison of one (dataset, learner,
// training split) combination.
type Evaluation struct {
	Dataset    string
	Learner    string
	TrainNodes []int
	TestNodes  []int
	Results    []InstanceResult
	Selector   *core.Selector
	// TrainWall and EvalWall are the wall-clock seconds spent training the
	// selector and evaluating the test instances, respectively.
	TrainWall float64
	EvalWall  float64
}

// Evaluate trains a selector on trainNodes and evaluates it on every
// dataset instance whose node count is in testNodes. mach and set must be
// the resolved machine/collective pair of the dataset (pass the same set
// across calls to reuse the memoized default-decision table).
func Evaluate(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	learner string, trainNodes, testNodes []int) (*Evaluation, error) {

	tTrain := time.Now()
	sel, err := core.Train(ds, set, learner, trainNodes)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Dataset:    ds.Spec.Name,
		Learner:    learner,
		TrainNodes: append([]int(nil), trainNodes...),
		TestNodes:  append([]int(nil), testNodes...),
		Selector:   sel,
		TrainWall:  time.Since(tTrain).Seconds(),
	}
	inTest := map[int]bool{}
	for _, n := range testNodes {
		inTest[n] = true
	}

	instances := ds.Instances()
	sort.Slice(instances, func(i, j int) bool {
		a, b := instances[i], instances[j]
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.PPN != b.PPN {
			return a.PPN < b.PPN
		}
		return a.Msize < b.Msize
	})

	tEval := time.Now()
	var test []dataset.Instance
	var qs []mpilib.Query
	for _, in := range instances {
		if !inTest[in.Nodes] {
			continue
		}
		topo, err := mach.Topo(in.Nodes, in.PPN)
		if err != nil {
			return nil, err
		}
		test = append(test, in)
		qs = append(qs, mpilib.Query{Topo: topo, M: in.Msize})
	}
	defaults := set.DecideAll(mach, qs)
	for i, in := range test {
		res, err := evaluateInstance(ds, set, sel, in, defaults[i])
		if err != nil {
			return nil, err
		}
		ev.Results = append(ev.Results, res)
	}
	ev.EvalWall = time.Since(tEval).Seconds()
	if len(ev.Results) == 0 {
		return nil, fmt.Errorf("eval: no test instances for nodes %v in %s", testNodes, ds.Spec.Name)
	}
	obs.Default.Counter("eval_instances_total",
		obs.Labels{"dataset": ev.Dataset, "learner": learner}).Add(int64(len(ev.Results)))
	return ev, nil
}

// evaluateInstance scores one test instance whose default decision is
// defaultID.
func evaluateInstance(ds *dataset.Dataset, set *mpilib.CollectiveSet,
	sel *core.Selector, in dataset.Instance, defaultID int) (InstanceResult, error) {

	res := InstanceResult{Instance: in, DefaultID: defaultID}
	var ok bool
	res.BestID, res.BestT, ok = ds.Best(set, in.Nodes, in.PPN, in.Msize)
	if !ok {
		return res, fmt.Errorf("eval: no measurements for instance %+v", in)
	}

	res.DefaultT, ok = ds.Lookup(res.DefaultID, in.Nodes, in.PPN, in.Msize)
	if !ok {
		return res, fmt.Errorf("eval: default config %d unmeasured for %+v", res.DefaultID, in)
	}

	pred := sel.Select(in.Nodes, in.PPN, in.Msize)
	res.PredID = pred.ConfigID
	res.PredAlgID = pred.AlgID
	res.ModelT = pred.Predicted
	res.PredT, ok = ds.Lookup(pred.ConfigID, in.Nodes, in.PPN, in.Msize)
	if !ok {
		return res, fmt.Errorf("eval: predicted config %d unmeasured for %+v", pred.ConfigID, in)
	}
	return res, nil
}

// MeanSpeedup is the arithmetic mean of the per-instance speedups over the
// default strategy — the quantity of the paper's Table IV.
func (e *Evaluation) MeanSpeedup() float64 {
	s := 0.0
	for _, r := range e.Results {
		s += r.Speedup()
	}
	return s / float64(len(e.Results))
}

// GeoMeanSpeedup is the geometric-mean variant (robust to outliers).
func (e *Evaluation) GeoMeanSpeedup() float64 {
	s := 0.0
	for _, r := range e.Results {
		s += math.Log(r.Speedup())
	}
	return math.Exp(s / float64(len(e.Results)))
}

// MeanVsBest is the mean normalized runtime of the predicted configuration
// relative to the exhaustive best (1.0 = always optimal).
func (e *Evaluation) MeanVsBest() float64 {
	s := 0.0
	for _, r := range e.Results {
		s += r.PredT / r.BestT
	}
	return s / float64(len(e.Results))
}
