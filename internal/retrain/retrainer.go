// The incremental retrainer: when drift is declared for a model, every
// selectable configuration is re-measured on the drifted machine over the
// instance cells the loop actually observed, the fresh samples are upserted
// into the model's dataset (held to the same row validation as a loaded
// cache), and exactly the refreshed configurations are refit on the shared
// fit pool. Re-measuring ALL configurations — not just the served winners —
// matters for convergence: the post-deploy argmin ranges over the whole
// portfolio, and a stale loser with an optimistic model would win the next
// selection and re-trigger drift forever.

package retrain

import (
	"fmt"
	"sort"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// cell is one observed (nodes, ppn, msize) instance.
type cell struct {
	nodes, ppn int
	msize      int64
}

// Candidate describes one retrained snapshot ready to deploy.
type Candidate struct {
	// Model is the registry name the candidate replaces (e.g. "d1-gam").
	Model string `json:"model"`
	// Path is the candidate snapshot file.
	Path string `json:"path"`
	// ReplacesPath is the snapshot file the candidate was refit from.
	ReplacesPath string `json:"replaces_path"`
	// Cells is how many observed instance cells were re-measured.
	Cells int `json:"cells"`
	// RefitConfigs is how many configurations were refit.
	RefitConfigs int `json:"refit_configs"`
	// Samples is how many fresh samples entered the dataset (replaced or
	// appended).
	Samples int `json:"samples"`
	// DatasetHashMatched reports whether the regenerated dataset's content
	// hash matched the base snapshot's fingerprint before the upserts —
	// false means the base was trained on data this loop cannot reproduce,
	// and the candidate's lineage is a fresh fingerprint rather than an
	// increment of the old one.
	DatasetHashMatched bool `json:"dataset_hash_matched"`
	// ProbeNodes/ProbePPNs/ProbeMsizes are the distinct values of the
	// observed cells, sorted — the instance pool a canary rollout should
	// probe the candidate on. The cells are in the training envelope by
	// construction (the base model predicted on them without fallback), so
	// probing them gates on real behavior instead of tripping the canary's
	// fallback monitor with out-of-envelope instances.
	ProbeNodes  []int   `json:"probe_nodes"`
	ProbePPNs   []int   `json:"probe_ppns"`
	ProbeMsizes []int64 `json:"probe_msizes"`
}

// probePools extracts the sorted distinct node, ppn, and message-size
// values of the observed cells.
func probePools(cells []cell) ([]int, []int, []int64) {
	ns, ps := map[int]struct{}{}, map[int]struct{}{}
	ms := map[int64]struct{}{}
	for _, c := range cells {
		ns[c.nodes] = struct{}{}
		ps[c.ppn] = struct{}{}
		ms[c.msize] = struct{}{}
	}
	nodes := make([]int, 0, len(ns))
	for n := range ns {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	ppns := make([]int, 0, len(ps))
	for p := range ps {
		ppns = append(ppns, p)
	}
	sort.Ints(ppns)
	msizes := make([]int64, 0, len(ms))
	for m := range ms {
		msizes = append(msizes, m)
	}
	sort.Slice(msizes, func(i, j int) bool { return msizes[i] < msizes[j] })
	return nodes, ppns, msizes
}

// retrainer turns a drifted model plus its observed cells into a candidate
// snapshot.
type retrainer struct {
	cacheDir string
	outDir   string
	scale    dataset.Scale
	reps     int
	pool     *core.FitPool
	// datasets caches the working copy per dataset name; upserts accumulate
	// across cycles so later candidates keep earlier corrections.
	datasets map[string]*dataset.Dataset
	seq      map[string]int // candidate sequence per model name
}

func newRetrainer(cacheDir, outDir string, scale dataset.Scale, reps int, pool *core.FitPool) *retrainer {
	if scale == "" {
		scale = dataset.ScaleSmoke
	}
	if reps <= 0 {
		reps = 2
	}
	return &retrainer{cacheDir: cacheDir, outDir: outDir, scale: scale, reps: reps,
		pool: pool, datasets: map[string]*dataset.Dataset{}, seq: map[string]int{}}
}

// dataset returns the working dataset for a fingerprint, loading (or
// deterministically regenerating) it on first use.
func (rt *retrainer) dataset(name string) (*dataset.Dataset, error) {
	if ds := rt.datasets[name]; ds != nil {
		return ds, nil
	}
	ds, err := dataset.LoadOrGenerate(rt.cacheDir, name, rt.scale, nil)
	if err != nil {
		return nil, fmt.Errorf("retrain: dataset %s: %w", name, err)
	}
	rt.datasets[name] = ds
	return ds, nil
}

// cycle re-measures the observed cells under plan, updates the dataset, and
// refits the affected configurations of the snapshot at basePath. The
// candidate file lands in outDir as <model>.retrain<NNN>.snap.
func (rt *retrainer) cycle(model, basePath string, cells []cell, plan *fault.Plan) (*Candidate, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("retrain: cycle for %s with no observed cells", model)
	}
	base, fp, err := core.LoadSnapshot(basePath)
	if err != nil {
		return nil, fmt.Errorf("retrain: loading base snapshot: %w", err)
	}
	ds, err := rt.dataset(fp.Dataset)
	if err != nil {
		return nil, err
	}
	spec, err := dataset.SpecByName(fp.Dataset, rt.scale)
	if err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		return nil, fmt.Errorf("retrain: resolving %s: %w", fp.Dataset, err)
	}

	cand := &Candidate{Model: model, ReplacesPath: basePath, Cells: len(cells),
		DatasetHashMatched: ds.Hash() == fp.DatasetHash}
	cand.ProbeNodes, cand.ProbePPNs, cand.ProbeMsizes = probePools(cells)

	// Measure the drifted machine: every selectable configuration over
	// every observed cell, deterministic per (config, cell) regardless of
	// the order drift was noticed in.
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.nodes != b.nodes {
			return a.nodes < b.nodes
		}
		if a.ppn != b.ppn {
			return a.ppn < b.ppn
		}
		return a.msize < b.msize
	})
	topos := make([]netmodel.Topology, len(cells))
	for j, c := range cells {
		if topos[j], err = mach.Topo(c.nodes, c.ppn); err != nil {
			return nil, fmt.Errorf("retrain: topology %dx%d: %w", c.nodes, c.ppn, err)
		}
	}
	cfgs := set.Selectable()
	grid := make([]bench.Cell, 0, len(cfgs)*len(cells))
	for _, cfg := range cfgs {
		for j, c := range cells {
			grid = append(grid, bench.Cell{
				Cfg: cfg, Net: mach.Net, Topo: topos[j], Msize: c.msize,
				Seed: sim.DomainSeed(sim.DomainRetrain,
					uint64(cfg.ID), uint64(c.nodes), uint64(c.ppn), uint64(c.msize)),
				MaxReps: rt.reps,
			})
		}
	}
	bo := bench.DefaultOptions(mach.Name)
	bo.MaxReps = rt.reps
	bo.Faults = plan
	refit := map[int]bool{}
	err = bench.Sweep(grid, bo, nil, func(i int, meas bench.Measurement) error {
		cfg, c := grid[i].Cfg, cells[i%len(cells)]
		s := dataset.Sample{
			ConfigID: cfg.ID, AlgID: cfg.AlgID,
			Nodes: c.nodes, PPN: c.ppn, Msize: c.msize,
			Time: meas.Median(), Reps: meas.Reps(),
			Consumed: meas.Consumed, Exhausted: meas.Exhausted,
		}
		if _, err := ds.Upsert(s); err != nil {
			return err
		}
		cand.Samples++
		refit[cfg.ID] = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("retrain: %w", err)
	}

	ids := make([]int, 0, len(refit))
	for id := range refit {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cand.RefitConfigs = len(ids)
	next, err := core.Refit(base, ds, set, ids, rt.pool)
	if err != nil {
		return nil, err
	}

	rt.seq[model]++
	cand.Path = fmt.Sprintf("%s/%s.retrain%03d.snap", rt.outDir, model, rt.seq[model])
	nfp := core.FingerprintFor(ds, fp.Learner, base.TrainNodes)
	if err := next.SaveSnapshot(cand.Path, nfp); err != nil {
		return nil, fmt.Errorf("retrain: saving candidate: %w", err)
	}
	return cand, nil
}
