// Package dataset defines the benchmark datasets of the paper's Table II
// (d1–d8), generates them by driving the benchmark harness over the full
// grid of algorithm configurations × nodes × ppn × message sizes, and
// persists them as CSV so the expensive benchmarking step runs once.
package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
)

// Sample is one measurement: the median benchmark time of one algorithm
// configuration on one problem instance.
type Sample struct {
	ConfigID int
	AlgID    int
	Nodes    int
	PPN      int
	Msize    int64
	Time     float64 // seconds
	Reps     int
	// Consumed is the simulated benchmarking time this sample cost
	// (sum over its repetitions).
	Consumed float64
	// Exhausted reports whether the ReproMPI time budget cut the
	// measurement short of its repetition cap.
	Exhausted bool
}

// NewSample is the row of one measured cell: the median of its
// repetitions, the paper's summary statistic, with the repetition count
// and budget accounting of the measurement.
func NewSample(c bench.Cell, meas bench.Measurement) Sample {
	return Sample{
		ConfigID: c.Cfg.ID, AlgID: c.Cfg.AlgID,
		Nodes: c.Topo.Nodes, PPN: c.Topo.PPN, Msize: c.Msize,
		Time: meas.Median(), Reps: meas.Reps(),
		Consumed: meas.Consumed, Exhausted: meas.Exhausted,
	}
}

// Spec describes one dataset of Table II.
type Spec struct {
	Name    string // d1..d8
	Lib     string // "Open MPI" / "Intel MPI"
	Version string
	Coll    string // mpilib collective name
	Machine string
	Nodes   []int
	PPNs    []int
	Msizes  []int64
}

// NumInstances returns #nodes × #ppn × #msizes.
func (s Spec) NumInstances() int { return len(s.Nodes) * len(s.PPNs) * len(s.Msizes) }

// Dataset is a fully measured Spec.
type Dataset struct {
	Spec    Spec
	Samples []Sample
	// Consumed is the total simulated benchmarking time, the quantity the
	// paper bounds a priori via the ReproMPI budget.
	Consumed float64

	index map[instKey]float64
}

type instKey struct {
	cfg   int
	nodes int
	ppn   int
	msize int64
}

// Scale selects how much of the paper-sized grid is generated.
type Scale string

const (
	// ScaleFull reproduces the Table II grids exactly.
	ScaleFull Scale = "full"
	// ScaleMid keeps all node counts, message sizes and configurations but
	// thins the ppn grid — the default for regenerating the experiments on
	// a laptop-class machine.
	ScaleMid Scale = "mid"
	// ScaleSmoke is a minutes-scale grid for tests and CI.
	ScaleSmoke Scale = "smoke"
)

// Standard message-size grid for Bcast/Allreduce (paper §IV-C).
var fixedMsizes = []int64{1, 16, 256, 1024, 4096, 16384, 65536, 524288, 1048576, 4194304}

// Alltoall uses per-destination sizes; the grid is capped at 64 KiB
// (8 sizes) because per-pair volumes scale with p.
var alltoallMsizes = []int64{1, 16, 64, 256, 1024, 4096, 16384, 65536}

// SuperMUC-NG broadcast grid (8 sizes, as d8 reports).
var smucMsizes = []int64{1, 16, 256, 1024, 4096, 16384, 65536, 524288}

func hydraNodes() []int     { return []int{4, 7, 8, 13, 16, 19, 24, 27, 32, 35, 36} }
func jupiterNodes() []int   { return []int{4, 7, 8, 13, 16, 19, 24, 27, 32, 35} }
func smucNodes() []int      { return []int{20, 27, 32, 35, 48} }
func hydraPPNs() []int      { return []int{1, 4, 8, 10, 16, 17, 20, 24, 28, 32} }
func jupiterPPNs() []int    { return []int{1, 2, 4, 8, 10, 13, 16} }
func smucPPNs() []int       { return []int{1, 8, 16, 24, 48} }
func hydraPPNsMid() []int   { return []int{1, 8, 16, 32} }
func jupiterPPNsMid() []int { return []int{1, 4, 8, 16} }
func smucPPNsMid() []int    { return []int{1, 24, 48} }

// Specs returns the eight datasets of Table II at the requested scale.
func Specs(scale Scale) []Spec {
	hp, jp, sp := hydraPPNs(), jupiterPPNs(), smucPPNs()
	ap := hp // alltoall (d6) ppn grid
	hn, jn, sn := hydraNodes(), jupiterNodes(), smucNodes()
	mf, ma, ms := fixedMsizes, alltoallMsizes, smucMsizes
	switch scale {
	case ScaleMid:
		hp, jp, sp = hydraPPNsMid(), jupiterPPNsMid(), smucPPNsMid()
		// Alltoall cost scales with p^2 per configuration; d6 feeds only
		// Table IV (no figure), so its mid-scale grid stays below the
		// p ~ 10^3 cells.
		ap = []int{1, 8, 16}
	case ScaleSmoke:
		hn, jn, sn = []int{2, 3, 4, 5}, []int{2, 3, 4, 5}, []int{2, 3, 4, 5}
		hp, jp, sp = []int{1, 2}, []int{1, 2}, []int{1, 2}
		ap = hp
		mf = []int64{64, 4096, 65536}
		ma = []int64{64, 1024}
		ms = []int64{64, 4096, 65536}
	case ScaleFull:
		ap = hp
	}
	return []Spec{
		{Name: "d1", Lib: "Open MPI", Version: "4.0.2", Coll: mpilib.Bcast, Machine: "Hydra", Nodes: hn, PPNs: hp, Msizes: mf},
		{Name: "d2", Lib: "Open MPI", Version: "4.0.2", Coll: mpilib.Allreduce, Machine: "Hydra", Nodes: hn, PPNs: hp, Msizes: mf},
		{Name: "d3", Lib: "Open MPI", Version: "4.0.2", Coll: mpilib.Bcast, Machine: "Jupiter", Nodes: jn, PPNs: jp, Msizes: mf},
		{Name: "d4", Lib: "Open MPI", Version: "4.0.2", Coll: mpilib.Allreduce, Machine: "Jupiter", Nodes: jn, PPNs: jp, Msizes: mf},
		{Name: "d5", Lib: "Intel MPI", Version: "2019", Coll: mpilib.Allreduce, Machine: "Hydra", Nodes: hn, PPNs: hp, Msizes: mf},
		{Name: "d6", Lib: "Intel MPI", Version: "2019", Coll: mpilib.Alltoall, Machine: "Hydra", Nodes: hn, PPNs: ap, Msizes: ma},
		{Name: "d7", Lib: "Intel MPI", Version: "2019", Coll: mpilib.Bcast, Machine: "Hydra", Nodes: hn, PPNs: hp, Msizes: mf},
		{Name: "d8", Lib: "Open MPI", Version: "4.0.2", Coll: mpilib.Bcast, Machine: "SuperMUC-NG", Nodes: sn, PPNs: sp, Msizes: ms},
	}
}

// SpecByName returns the named dataset spec at the given scale.
func SpecByName(name string, scale Scale) (Spec, error) {
	for _, s := range Specs(scale) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Resolve returns the spec's machine profile and collective set.
func (s Spec) Resolve() (machine.Machine, *mpilib.CollectiveSet, error) {
	return mpilib.Resolve(s.Machine, s.Lib, s.Coll)
}

// Generate measures the full dataset. opts controls the per-configuration
// measurement loop; progress (optional) is called after each completed
// instance grid cell with (done, total) counts.
func Generate(spec Spec, opts bench.Options, progress func(done, total int)) (*Dataset, error) {
	return generate(spec, opts, progress, genControl{})
}

// genControl hooks the measurement loop for checkpoint/resume. The zero value
// is a plain uncontrolled run.
type genControl struct {
	// recorded holds samples measured by an earlier, interrupted run; the
	// loop replays them in grid order instead of re-measuring.
	recorded map[sampleKey]Sample
	// record, when non-nil, is called after every fresh measurement —
	// typically a journal append.
	record func(Sample) error
	// stop, when non-nil, is polled between measurements; returning true
	// aborts the run with ErrInterrupted.
	stop func() bool
	// reused, when non-nil, receives the count of replayed samples.
	reused *int
}

// sampleKey identifies one measurement in the grid.
type sampleKey struct {
	cfg, nodes, ppn int
	msize           int64
}

// generate is the measurement loop shared by Generate and GenerateResumable.
// Because every sample's noise seed depends only on (dataset, config,
// instance) — never on loop order — replayed and freshly measured samples
// compose into a dataset bit-identical to an uninterrupted run.
//
// The grid is enumerated in the canonical nodes → ppn → msize → config order
// into a flat cell list, then measured by bench.Sweep across
// GOMAXPROCS workers. Sweep commits results in cell order from this
// goroutine, so samples, journal appends, metrics accounting and progress
// callbacks are byte-for-byte those of a serial loop at any worker count.
func generate(spec Spec, opts bench.Options, progress func(done, total int), ctl genControl) (*Dataset, error) {
	mach, set, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	if opts.Metrics == nil {
		opts.Metrics = bench.NewMetrics(obs.Default, obs.Labels{
			"dataset": spec.Name, "machine": spec.Machine,
			"lib": spec.Lib, "coll": spec.Coll,
		})
	}
	ds := &Dataset{Spec: spec}

	// One grid cell: either a fresh measurement (described by cells[i]) or a
	// sample replayed from an interrupted run (replays[i], with Skip set).
	var (
		cells   []bench.Cell
		replays []Sample
	)
	for _, n := range spec.Nodes {
		for _, ppn := range spec.PPNs {
			topo, err := mach.Topo(n, ppn)
			if err != nil {
				return nil, err
			}
			for _, m := range spec.Msizes {
				reps := adaptReps(opts.MaxReps, spec.Coll, topo.P(), m)
				for _, cfg := range set.Configs {
					if s, ok := ctl.recorded[sampleKey{cfg.ID, n, ppn, m}]; ok {
						cells = append(cells, bench.Cell{Skip: true})
						replays = append(replays, s)
						continue
					}
					seed := sim.Seed(nameSeed(spec.Name),
						uint64(cfg.ID), uint64(n), uint64(ppn), uint64(m))
					cells = append(cells, bench.Cell{
						Cfg: cfg, Net: mach.Net, Topo: topo,
						Msize: m, Seed: seed, MaxReps: reps,
					})
					replays = append(replays, Sample{})
				}
			}
		}
	}

	total := len(cells)
	done := 0
	var cbErr error
	commit := func(i int, meas bench.Measurement) error {
		var s Sample
		if cells[i].Skip {
			s = replays[i]
			if ctl.reused != nil {
				*ctl.reused++
			}
		} else {
			s = NewSample(cells[i], meas)
			if ctl.record != nil {
				if err := ctl.record(s); err != nil {
					cbErr = fmt.Errorf("dataset %s: journal: %w", spec.Name, err)
					return cbErr
				}
			}
		}
		ds.Samples = append(ds.Samples, s)
		ds.Consumed += s.Consumed
		done++
		if progress != nil && done%len(set.Configs) == 0 {
			progress(done, total)
		}
		return nil
	}
	if err := bench.Sweep(cells, opts, ctl.stop, commit); err != nil {
		if errors.Is(err, par.ErrStopped) {
			return nil, ErrInterrupted
		}
		if err == cbErr {
			return nil, err
		}
		return nil, fmt.Errorf("dataset %s: %w", spec.Name, err)
	}
	ds.buildIndex()
	return ds, nil
}

func (d *Dataset) buildIndex() {
	d.index = make(map[instKey]float64, len(d.Samples))
	for _, s := range d.Samples {
		d.index[instKey{s.ConfigID, s.Nodes, s.PPN, s.Msize}] = s.Time
	}
}

// ExhaustedCount returns how many samples were cut short by the time budget.
func (d *Dataset) ExhaustedCount() int {
	n := 0
	for _, s := range d.Samples {
		if s.Exhausted {
			n++
		}
	}
	return n
}

// Lookup returns the measured time of a configuration on an instance.
func (d *Dataset) Lookup(cfgID, nodes, ppn int, msize int64) (float64, bool) {
	t, ok := d.index[instKey{cfgID, nodes, ppn, msize}]
	return t, ok
}

// Best returns the empirically fastest non-excluded configuration for an
// instance (the paper's "exhaustive search" reference) and its time.
func (d *Dataset) Best(set *mpilib.CollectiveSet, nodes, ppn int, msize int64) (int, float64, bool) {
	bestID, bestT := 0, 0.0
	for _, cfg := range set.Selectable() {
		t, ok := d.Lookup(cfg.ID, nodes, ppn, msize)
		if !ok {
			continue
		}
		if bestID == 0 || t < bestT {
			bestID, bestT = cfg.ID, t
		}
	}
	return bestID, bestT, bestID != 0
}

// Instances enumerates the distinct (nodes, ppn, msize) cells present.
func (d *Dataset) Instances() []Instance {
	seen := map[Instance]bool{}
	var out []Instance
	for _, s := range d.Samples {
		in := Instance{s.Nodes, s.PPN, s.Msize}
		if !seen[in] {
			seen[in] = true
			out = append(out, in)
		}
	}
	return out
}

// InstancesOn returns the distinct cells whose node count is in nodes,
// sorted by (nodes, ppn, msize): the test or training instances of a
// node-count split, in one order for every caller.
func (d *Dataset) InstancesOn(nodes []int) []Instance {
	var out []Instance
	for _, in := range d.Instances() {
		if slices.Contains(nodes, in.Nodes) {
			out = append(out, in)
		}
	}
	slices.SortFunc(out, func(a, b Instance) int {
		return cmp.Or(cmp.Compare(a.Nodes, b.Nodes), cmp.Compare(a.PPN, b.PPN), cmp.Compare(a.Msize, b.Msize))
	})
	return out
}

// Instance identifies one communication problem (message size, allocation).
type Instance struct {
	Nodes int
	PPN   int
	Msize int64
}

// P returns the total process count of the instance.
func (i Instance) P() int { return i.Nodes * i.PPN }

// adaptReps lowers the repetition count for expensive instances (large
// messages, or alltoall on many processes) — the simulated analogue of the
// ReproMPI time budget kicking in, which on real hardware also yields few
// repetitions exactly for the instances that run long.
func adaptReps(maxReps int, coll string, p int, m int64) int {
	reps := maxReps
	switch {
	case m >= 1<<20:
		reps = 1
	case m >= 1<<18 && reps > 2:
		reps = 2
	}
	if coll == mpilib.Alltoall && p >= 512 {
		reps = 1
	}
	return reps
}

// nameSeed hashes a dataset name into a seed component (FNV-1a).
func nameSeed(name string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}
