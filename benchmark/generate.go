package main

import (
	"fmt"

	"mpicollpred/internal/dataset"
)

// The generate workload runs dataset.Generate, with no cache, on two
// mid-scale slices: Open MPI allreduce on Hydra (d2) and Open MPI bcast on
// SuperMUC-NG (d8). Measurement sweeps (bench.Sweep), schedule build and the
// event queue do nearly all the work; nothing is fitted and no default
// decided. It is the paper's costliest step.
//
// One round is the slices below: 1192 measured cells, p from 4 to 480, about
// 3 s on a 2-core host. Every round measures the same grid with the same
// noise streams, so rounds are identical work and each one must reproduce
// the first bit for bit.
var genSlices = []struct {
	dataset string
	nodes   []int
	ppns    []int // nil keeps every mid-scale ppn
}{
	{"d2", []int{4}, nil},
	{"d8", []int{20}, []int{1, 24}},
}

type generate struct {
	specs []dataset.Spec
	// refs are the committed caches of the same datasets: at seed 1 every
	// generated row must equal its committed row bit for bit.
	refs  []*dataset.Dataset
	first []*dataset.Dataset // round 0's outputs
	last  []*dataset.Dataset // the latest round's outputs
}

// setup reads the committed caches and derives the slice specs. Seeds other
// than 1 rename the datasets (d2~7), which re-keys every noise stream over
// the same grid.
func (g *generate) setup(r *run) error {
	g.specs, g.refs = nil, nil
	for _, sl := range genSlices {
		ref, err := readDataset(r.tr, sl.dataset)
		if err != nil {
			return err
		}
		spec, err := dataset.SpecByName(sl.dataset, dataset.ScaleMid)
		if err != nil {
			return err
		}
		spec.Nodes = sl.nodes
		if sl.ppns != nil {
			spec.PPNs = sl.ppns
		}
		if r.seed != 1 {
			spec.Name = fmt.Sprintf("%s~%d", spec.Name, r.seed)
		}
		g.specs = append(g.specs, spec)
		g.refs = append(g.refs, ref)
	}
	return nil
}

func (g *generate) measure(r *run) error {
	err := r.runRounds(func() (int64, error) {
		g.last = g.last[:0]
		var cells int64
		for _, spec := range g.specs {
			end := r.tr.start("bench.sweep")
			ds, err := dataset.Generate(spec, dataset.DefaultGenOptions(spec, dataset.ScaleMid), nil)
			end()
			if err != nil {
				return cells, err
			}
			r.tr.add("bench.cells", float64(len(ds.Samples)))
			for _, s := range ds.Samples {
				r.tr.add("bench.reps", float64(s.Reps))
			}
			r.tr.add("bench.consumed_sim_s", ds.Consumed)
			g.last = append(g.last, ds)
			cells += int64(len(ds.Samples))
		}
		return cells, nil
	}, g.check)
	if err != nil || r.tr == nil {
		return err
	}
	return g.decompose(r)
}

// check verifies one round's datasets: complete and valid, equal to the
// committed rows at seed 1, and equal to round 0 in every later round.
func (g *generate) check(r *run) error {
	if g.first == nil {
		g.first = append([]*dataset.Dataset(nil), g.last...)
		for i, ds := range g.last {
			r.notef("%s: %d cells, dataset hash %016x", ds.Spec.Name, len(ds.Samples), ds.Hash())
			if err := checkComplete(ds); err != nil {
				return err
			}
			if r.seed == 1 {
				if err := matchSamples(ds, g.refs[i]); err != nil {
					return fmt.Errorf("against the committed cache: %w", err)
				}
			}
		}
		return nil
	}
	for i, ds := range g.last {
		if err := matchSamples(ds, g.first[i]); err != nil {
			return fmt.Errorf("against round 0: %w", err)
		}
	}
	return nil
}

// checkComplete requires a clean Validate report and one sample per
// (configuration, instance) cell of the spec's grid.
func checkComplete(ds *dataset.Dataset) error {
	if rep := ds.Validate(); !rep.Clean() {
		return fmt.Errorf("%s: %s", ds.Spec.Name, rep)
	}
	_, set, err := ds.Spec.Resolve()
	if err != nil {
		return err
	}
	if want := len(set.Configs) * ds.Spec.NumInstances(); len(ds.Samples) != want {
		return fmt.Errorf("%s: %d samples, want %d", ds.Spec.Name, len(ds.Samples), want)
	}
	return nil
}

// matchSamples requires every sample of got to equal, field for field and
// bit for bit, the sample of want with the same (configuration, instance).
func matchSamples(got, want *dataset.Dataset) error {
	type key struct {
		cfg, nodes, ppn int
		msize           int64
	}
	idx := make(map[key]dataset.Sample, len(want.Samples))
	for _, s := range want.Samples {
		idx[key{s.ConfigID, s.Nodes, s.PPN, s.Msize}] = s
	}
	for _, s := range got.Samples {
		w, ok := idx[key{s.ConfigID, s.Nodes, s.PPN, s.Msize}]
		if !ok {
			return fmt.Errorf("%s: no reference row for config %d on %dx%d m=%d",
				got.Spec.Name, s.ConfigID, s.Nodes, s.PPN, s.Msize)
		}
		if s != w {
			return fmt.Errorf("%s: config %d on %dx%d m=%d: got %+v, want %+v",
				got.Spec.Name, s.ConfigID, s.Nodes, s.PPN, s.Msize, s, w)
		}
	}
	return nil
}

func (g *generate) verify(r *run) error { return nil }

func (g *generate) close() {}
