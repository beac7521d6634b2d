package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/floats"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/sim"
	"mpicollpred/internal/tablefmt"
)

// The table4 workloads compute columns of the paper's Table IVa and IVb
// from the committed caches: for each dataset, both training splits and all
// three learners, eval.Evaluate trains a selector and compares its choice
// with the library's default decision on every test instance.
//
//   - table4_intel: d7 (Intel MPI bcast on Hydra). The Intel default
//     simulates all 17 configurations noise-free for every new instance,
//     so default decisions do about nine tenths of the work.
//   - table4_openmpi: d1, d2, d3, d4 and d8. The Open MPI default is a
//     fixed rule and nothing is simulated; fitting (mostly XGBoost) and
//     selecting do the work.
//
// Each round resolves a fresh collective set per dataset, so the default
// decisions start from an empty memo, and shares it across the dataset's
// six evaluations, as cmd/experiments does.
type table4 struct {
	intel  bool
	inputs []*dataset.Dataset // the rows a round evaluates, per dataset
	cells  []t4cell           // the latest round's evaluations
	digest [2]string          // round 0's defaults and decisions digests
	first  []t4cell           // round 0's evaluations, selectors dropped
}

// t4cell is one (dataset, split variant, learner) cell of Table IV.
type t4cell struct {
	variant string
	ds      *dataset.Dataset
	ev      *eval.Evaluation
}

var variants = []string{"full", "small"}

func (t *table4) datasets() []string {
	if t.intel {
		return []string{"d7"}
	}
	return []string{"d1", "d2", "d3", "d4", "d8"}
}

func (t *table4) name() string {
	if t.intel {
		return "table4_intel"
	}
	return "table4_openmpi"
}

// setup reads and perturbs the datasets (see perturb). table4_intel then
// keeps a quarter of d7's test instances (see testSubset).
func (t *table4) setup(r *run) error {
	t.inputs = nil
	for _, name := range t.datasets() {
		ds, err := readDataset(r.tr, name)
		if err != nil {
			return err
		}
		if ds, err = perturb(ds, r.seed); err != nil {
			return err
		}
		if t.intel {
			if ds, err = testSubset(ds); err != nil {
				return err
			}
		}
		t.inputs = append(t.inputs, ds)
	}
	return nil
}

// testSubset keeps every training row of ds and 50 of its 200 test
// instances: each (test node count, message size) pair once, the ppn
// rotating across both. A round then costs about a quarter of the full
// column, with decisions and fits in the full column's proportion.
func testSubset(ds *dataset.Dataset) (*dataset.Dataset, error) {
	split, err := eval.SplitFor(ds.Spec.Machine)
	if err != nil {
		return nil, err
	}
	test := map[int]bool{}
	keep := map[dataset.Instance]bool{}
	ppns := ds.Spec.PPNs
	for i, n := range split.Test {
		test[n] = true
		for j, m := range ds.Spec.Msizes {
			keep[dataset.Instance{Nodes: n, PPN: ppns[(i+j)%len(ppns)], Msize: m}] = true
		}
	}
	cp := *ds
	cp.Samples = nil
	for _, s := range ds.Samples {
		if !test[s.Nodes] || keep[dataset.Instance{Nodes: s.Nodes, PPN: s.PPN, Msize: s.Msize}] {
			cp.Samples = append(cp.Samples, s)
		}
	}
	return rebuild(&cp)
}

func (t *table4) measure(r *run) error {
	err := r.runRounds(func() (int64, error) {
		t.cells = t.cells[:0]
		var work int64
		for _, ds := range t.inputs {
			mach, set, err := ds.Spec.Resolve()
			if err != nil {
				return work, err
			}
			split, err := eval.SplitFor(ds.Spec.Machine)
			if err != nil {
				return work, err
			}
			decided := map[dataset.Instance]bool{}
			for _, variant := range variants {
				train, err := split.TrainNodes(variant)
				if err != nil {
					return work, err
				}
				for _, learner := range learners {
					var ev *eval.Evaluation
					if r.tr == nil {
						ev, err = eval.Evaluate(ds, mach, set, learner, train, split.Test)
					} else {
						ev, err = replayEvaluate(r.tr, ds, mach, set, learner, train, split.Test, decided)
					}
					if err != nil {
						return work, err
					}
					work += int64(len(ev.Results))
					t.cells = append(t.cells, t4cell{variant, ds, ev})
				}
			}
		}
		return work, nil
	}, t.check)
	if err != nil || r.tr == nil || !t.intel {
		return err
	}
	r.fail(t.decompose(r))
	return nil
}

// check verifies one round. Round 0 is checked in depth (checkEvaluation on
// every result) and fingerprinted; every later round must reproduce round
// 0's fingerprints. Selectors are dropped afterwards so rounds do not pile
// up trained models.
func (t *table4) check(r *run) error {
	defer func() {
		for _, c := range t.cells {
			c.ev.Selector = nil
		}
	}()
	d := t4digests(t.cells)
	if t.first != nil {
		if d != t.digest {
			return fmt.Errorf("round %d digests %v differ from round 0's %v", r.rounds-1, d, t.digest)
		}
		return nil
	}
	for _, c := range t.cells {
		if err := checkEvaluation(c.ds, c.ev); err != nil {
			return err
		}
	}
	t.digest = d
	t.first = append([]t4cell(nil), t.cells...)
	r.notef("%s: %d evaluations, defaults digest %s, decisions digest %s", t.name(), len(t.cells), d[0], d[1])
	return nil
}

// checkEvaluation checks every instance result against the evaluation's
// inputs: the prediction is the head of the selector's full ranking
// (PredictAll sorts all predictions, an independent path to the argmin),
// the reported times are the dataset's measurements of the chosen
// configurations, and the exhaustive best is no slower than either choice.
func checkEvaluation(ds *dataset.Dataset, ev *eval.Evaluation) error {
	sel := ev.Selector
	for _, res := range ev.Results {
		in := res.Instance
		if ranked := sel.PredictAll(in.Nodes, in.PPN, in.Msize); len(ranked) == 0 || ranked[0].ConfigID != res.PredID {
			return fmt.Errorf("%s/%s %+v: selected config %d is not the head of the ranking", ev.Dataset, ev.Learner, in, res.PredID)
		}
		for _, c := range []struct {
			id int
			t  float64
		}{{res.PredID, res.PredT}, {res.DefaultID, res.DefaultT}, {res.BestID, res.BestT}} {
			if mt, ok := ds.Lookup(c.id, in.Nodes, in.PPN, in.Msize); !ok || !floats.Exact(mt, c.t) {
				return fmt.Errorf("%s/%s %+v: config %d reported %v, measured %v", ev.Dataset, ev.Learner, in, c.id, c.t, mt)
			}
		}
		if res.BestT > res.PredT || res.BestT > res.DefaultT {
			return fmt.Errorf("%s/%s %+v: best time %v exceeds a chosen configuration's", ev.Dataset, ev.Learner, in, res.BestT)
		}
	}
	return nil
}

// t4digests fingerprints a round: the default decision on every evaluated
// instance, and the selector's choice in every (dataset, split, learner)
// cell. Default decisions do not depend on measured times, so the first
// digest is the same for every seed.
func t4digests(cells []t4cell) [2]string {
	defaults, decisions := newDigest(), newDigest()
	for i, c := range cells {
		for _, res := range c.ev.Results {
			defaults.add(int64(res.Nodes), int64(res.PPN), res.Msize, int64(res.DefaultID))
			decisions.add(int64(i), int64(res.Nodes), int64(res.PPN), res.Msize, int64(res.DefaultID), int64(res.PredID))
		}
	}
	return [2]string{defaults.String(), decisions.String()}
}

// t4golden holds each workload's round fingerprints (t4digests). The
// defaults digest holds for every seed, the decisions digest for seed 1
// only. They were recorded from runs whose outputs were checked
// independently: every table4_openmpi cell matched the committed Table IV,
// and every table4_intel default matched its traced decomposition.
var t4golden = map[string][2]string{
	"table4_intel":   {"b4e27b06bfc1a511", "cdc15165ac6d012c"},
	"table4_openmpi": {"d3e3a7994433289d", "e21a6bd08fac036c"},
}

func (t *table4) verify(r *run) error {
	golden := t4golden[t.name()]
	if t.digest[0] != golden[0] {
		return fmt.Errorf("default decisions digest %s, want %s", t.digest[0], golden[0])
	}
	if r.seed != 1 {
		return nil
	}
	if t.digest[1] != golden[1] {
		return fmt.Errorf("selector decisions digest %s, want %s", t.digest[1], golden[1])
	}
	if t.intel {
		return nil // a round covers a subset of d7's column; the digests pin it
	}
	return t.checkTables(r)
}

// checkTables compares every cell of the round with the committed Table IVa
// (full split) and IVb (small split).
func (t *table4) checkTables(r *run) error {
	for vi, path := range []string{"results/table4a.txt", "results/table4b.txt"} {
		want, err := readTable4(path)
		if err != nil {
			return err
		}
		for _, c := range t.first {
			if c.variant != variants[vi] {
				continue
			}
			got := tablefmt.F(c.ev.MeanSpeedup(), 2)
			w := want[learnerLabel(c.ev.Learner)][c.ev.Dataset]
			if got != w {
				return fmt.Errorf("%s: %s/%s mean speedup %s, committed %s", path, c.ev.Dataset, c.ev.Learner, got, w)
			}
		}
		r.notef("%s: %s cells match", path, strings.Join(t.datasets(), ","))
	}
	return nil
}

// readTable4 parses a committed Table IV text into row label → dataset →
// formatted cell.
func readTable4(path string) (map[string]map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; the scan error is checked
	out := map[string]map[string]string{}
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) > 1 && fields[0] == "method":
			header = fields
		case header != nil && len(fields) == len(header):
			row := map[string]string{}
			for i := 1; i < len(fields); i++ {
				row[header[i]] = fields[i]
			}
			out[fields[0]] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no table rows", path)
	}
	return out, nil
}

// learnerLabel is the Table IV row label of a learner.
func learnerLabel(l string) string {
	switch l {
	case "knn":
		return "KNN"
	case "gam":
		return "GAM"
	case "xgboost":
		return "XGBoost"
	}
	return l
}

// replayEvaluate is eval.Evaluate unrolled into its calls into each layer,
// each under a span: core.Train, then for every test instance Dataset.Best,
// CollectiveSet.Decide, Selector.Select and Dataset.Lookup. It produces
// exactly what Evaluate does, so the traced run passes the same checks.
// decided tracks the instances already decided on this collective set,
// whose memo makes every later Decide a hit.
func replayEvaluate(tr *tracer, ds *dataset.Dataset, mach machine.Machine, set *mpilib.CollectiveSet,
	learner string, train, test []int, decided map[dataset.Instance]bool) (*eval.Evaluation, error) {
	defer tr.start("eval")()
	end := tr.start("core.train")
	sel, err := core.Train(ds, set, learner, train)
	end()
	if err != nil {
		return nil, err
	}
	traceFit(tr, learner, sel)

	ev := &eval.Evaluation{Dataset: ds.Spec.Name, Learner: learner,
		TrainNodes: append([]int(nil), train...), TestNodes: append([]int(nil), test...), Selector: sel}
	inTest := map[int]bool{}
	for _, n := range test {
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
	for _, in := range instances {
		if !inTest[in.Nodes] {
			continue
		}
		res := eval.InstanceResult{Instance: in}
		var ok bool
		end = tr.start("dataset.lookup")
		res.BestID, res.BestT, ok = ds.Best(set, in.Nodes, in.PPN, in.Msize)
		end()
		if !ok {
			return nil, fmt.Errorf("no measurements for instance %+v", in)
		}
		topo, err := mach.Topo(in.Nodes, in.PPN)
		if err != nil {
			return nil, err
		}
		end = tr.start("mpilib.decide")
		res.DefaultID = set.Decide(mach, topo, in.Msize)
		end()
		if !decided[in] {
			decided[in] = true
			tr.add("mpilib.misses", 1)
		}
		end = tr.start("dataset.lookup")
		res.DefaultT, ok = ds.Lookup(res.DefaultID, in.Nodes, in.PPN, in.Msize)
		end()
		if !ok {
			return nil, fmt.Errorf("default config %d unmeasured for %+v", res.DefaultID, in)
		}
		end = tr.start("core.select." + learner)
		pred := sel.Select(in.Nodes, in.PPN, in.Msize)
		end()
		res.PredID, res.PredAlgID, res.ModelT = pred.ConfigID, pred.AlgID, pred.Predicted
		end = tr.start("dataset.lookup")
		res.PredT, ok = ds.Lookup(pred.ConfigID, in.Nodes, in.PPN, in.Msize)
		end()
		if !ok {
			return nil, fmt.Errorf("predicted config %d unmeasured for %+v", pred.ConfigID, in)
		}
		ev.Results = append(ev.Results, res)
	}
	tr.add("eval.instances", float64(len(ev.Results)))
	return ev, nil
}

// decompose re-derives every default decision of the last round from first
// principles: each selectable configuration built and run once, noise-free,
// on the machine's reference network — what the Intel profile's tuning table
// does inside Decide. The argmin must equal Decide's answer.
func (t *table4) decompose(r *run) error {
	eng := sim.NewEngine()
	seen := map[dataset.Instance]bool{}
	for _, c := range t.cells {
		ds := c.ds
		mach, set, err := ds.Spec.Resolve()
		if err != nil {
			return err
		}
		for _, res := range c.ev.Results {
			if seen[res.Instance] {
				continue
			}
			seen[res.Instance] = true
			topo, err := mach.Topo(res.Nodes, res.PPN)
			if err != nil {
				return err
			}
			bestID, bestT := 0, 0.0
			for _, cfg := range set.Selectable() {
				tm, err := simulate(r.tr, eng, cfg, mach.RefNet, topo, res.Msize, 1, false)
				if err != nil {
					continue // as in Decide: a failing schedule cannot be the default
				}
				if bestID == 0 || tm < bestT {
					bestID, bestT = cfg.ID, tm
				}
			}
			if bestID == 0 {
				bestID = 1
			}
			if bestID != res.DefaultID {
				return fmt.Errorf("%s %+v: Decide chose %d, the decomposed argmin is %d", ds.Spec.Name, res.Instance, res.DefaultID, bestID)
			}
		}
	}
	r.notef("table4_intel: %d default decisions re-derived by decomposition", len(seen))
	return nil
}

func (t *table4) close() {}
