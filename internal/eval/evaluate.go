package eval

import (
	"fmt"

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
	// ModelT is the strategy's predicted value for the chosen
	// configuration: the model's *predicted* time for a core.Selector
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
}

// Evaluate trains a selector on trainNodes and scores it on every dataset
// instance whose node count is in testNodes. mach and set must be the
// resolved machine/collective pair of the dataset (pass the same set across
// calls to reuse the memoized default-decision table).
func Evaluate(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	learner string, trainNodes, testNodes []int) (*Evaluation, error) {

	sel, err := core.Train(ds, set, learner, trainNodes)
	if err != nil {
		return nil, err
	}
	ev, err := Score(ds, mach, set, sel, testNodes)
	if err != nil {
		return nil, err
	}
	ev.Learner = learner
	ev.TrainNodes = append([]int(nil), trainNodes...)
	ev.Selector = sel
	obs.Default.Counter("eval_instances_total",
		obs.Labels{"dataset": ev.Dataset, "learner": learner}).Add(int64(len(ev.Results)))
	return ev, nil
}

// Score compares a trained strategy's choice with the library default and
// the exhaustive best on every dataset instance whose node count is in
// testNodes, in InstancesOn order. It fills Dataset, TestNodes and Results;
// Evaluate adds the training fields.
func Score(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	strat core.Strategy, testNodes []int) (*Evaluation, error) {

	test := ds.InstancesOn(testNodes)
	if len(test) == 0 {
		return nil, fmt.Errorf("eval: no test instances for nodes %v in %s", testNodes, ds.Spec.Name)
	}
	results, err := scoreInstances(ds, mach, set, strat, test)
	if err != nil {
		return nil, err
	}
	return &Evaluation{Dataset: ds.Spec.Name, TestNodes: append([]int(nil), testNodes...), Results: results}, nil
}

// scoreInstances scores strat on every instance of insts, in order, with
// all default decisions taken in one DecideAll.
func scoreInstances(ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	strat core.Strategy, insts []dataset.Instance) ([]InstanceResult, error) {

	qs := make([]mpilib.Query, len(insts))
	for i, in := range insts {
		topo, err := mach.Topo(in.Nodes, in.PPN)
		if err != nil {
			return nil, err
		}
		qs[i] = mpilib.Query{Topo: topo, M: in.Msize}
	}
	results := make([]InstanceResult, len(insts))
	for i, def := range set.DecideAll(mach, qs) {
		res, err := evaluateInstance(ds, set, strat, insts[i], def)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// evaluateInstance scores one test instance whose default decision is
// defaultID.
func evaluateInstance(ds *dataset.Dataset, set *mpilib.CollectiveSet,
	strat core.Strategy, in dataset.Instance, defaultID int) (InstanceResult, error) {

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

	pred := strat.Select(in.Nodes, in.PPN, in.Msize)
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

// MeanVsBest is the mean normalized runtime of the predicted configuration
// relative to the exhaustive best (1.0 = always optimal).
func (e *Evaluation) MeanVsBest() float64 {
	s := 0.0
	for _, r := range e.Results {
		s += r.PredT / r.BestT
	}
	return s / float64(len(e.Results))
}
