package audit

import (
	"fmt"
	"math"
	"sort"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/sim"
	"mpicollpred/internal/tablefmt"
)

// replayInstanceCap caps the unique decisions measured; a log with more
// is sampled at evenly spaced positions of the sorted decisions, so every
// part of the sort order (every model) keeps its share.
const replayInstanceCap = 64

// ReplayOptions configures a replay run.
type ReplayOptions struct {
	// Reps is the simulated repetitions per measurement (default 2).
	Reps int
}

// ReplayRow is one unique served decision re-measured in the simulator.
type ReplayRow struct {
	Model     string
	Nodes     int
	PPN       int
	Msize     int64
	Label     string
	Predicted float64
	Observed  float64
	RelErr    float64 // (predicted - observed) / observed
	Count     int     // log records that collapsed into this row
}

// ReplayModelStats aggregates one model's replay error.
type ReplayModelStats struct {
	Model           string
	Rows            int
	MeanAbsRelErr   float64
	MedianAbsRelErr float64
	WithinFactor2   float64 // fraction with observed/2 <= predicted <= 2*observed
}

// ReplayReport is the observed-vs-predicted comparison — the direct input
// to telemetry-driven retraining (ROADMAP item 2).
type ReplayReport struct {
	Rows     []ReplayRow
	Models   []ReplayModelStats
	Skipped  int // fallback decisions (no prediction to compare)
	Unique   int // unique decisions before the replayInstanceCap cap
	Measured int
}

// replaySeedSalt keys replay measurements apart from every other consumer
// of the simulator's seed space; it is the audit-replay domain salt from
// the simulator's seed-domain registry (the numeric value predates the
// registry and is pinned there, so existing replay reports stay
// byte-identical).
const replaySeedSalt = sim.DomainAuditReplay

// replayKey identifies one unique served decision.
type replayKey struct {
	model         string
	mach, lib     string
	coll          string
	nodes, ppn    int
	msize         int64
	configID      int
	predictedBits uint64
}

// Replay re-measures every unique served decision through the simulated
// machine the model was trained for and compares the observation against
// the served prediction. The measurement seed depends only on the decision
// (never on log order or time), so the same log always replays to the same
// report — byte for byte.
func Replay(recs []Record, opts ReplayOptions) (*ReplayReport, error) {
	if opts.Reps <= 0 {
		opts.Reps = 2
	}

	type uniq struct {
		key   replayKey
		label string
		count int
	}
	seen := map[replayKey]*uniq{}
	rep := &ReplayReport{}
	for _, r := range recs {
		if r.PredictedSeconds == nil {
			rep.Skipped++
			continue
		}
		k := replayKey{model: r.Model, mach: r.Machine, lib: r.Lib, coll: r.Coll,
			nodes: r.Nodes, ppn: r.PPN, msize: r.Msize, configID: r.ConfigID,
			predictedBits: math.Float64bits(*r.PredictedSeconds)}
		if u := seen[k]; u != nil {
			u.count++
			continue
		}
		seen[k] = &uniq{key: k, label: r.Label, count: 1}
	}
	uniques := make([]*uniq, 0, len(seen))
	for _, u := range seen {
		uniques = append(uniques, u)
	}
	sort.Slice(uniques, func(i, j int) bool {
		a, b := uniques[i].key, uniques[j].key
		if a.model != b.model {
			return a.model < b.model
		}
		if a.nodes != b.nodes {
			return a.nodes < b.nodes
		}
		if a.ppn != b.ppn {
			return a.ppn < b.ppn
		}
		if a.msize != b.msize {
			return a.msize < b.msize
		}
		if a.configID != b.configID {
			return a.configID < b.configID
		}
		return a.predictedBits < b.predictedBits
	})
	rep.Unique = len(uniques)
	if len(uniques) > replayInstanceCap {
		sampled := make([]*uniq, replayInstanceCap)
		for i := range sampled {
			sampled[i] = uniques[i*len(uniques)/replayInstanceCap]
		}
		uniques = sampled
	}

	m := bench.NewMeasurer(opts.Reps, nil)
	for _, u := range uniques {
		k := u.key
		seed := sim.Seed(replaySeedSalt, uint64(k.configID), uint64(k.nodes), uint64(k.ppn), uint64(k.msize))
		observed, err := m.Measure(k.mach, k.lib, k.coll, k.configID, k.nodes, k.ppn, k.msize, seed)
		if err != nil {
			return nil, fmt.Errorf("audit: replaying %s %dx%d m=%d: %w", k.model, k.nodes, k.ppn, k.msize, err)
		}
		predicted := math.Float64frombits(k.predictedBits)
		rep.Rows = append(rep.Rows, ReplayRow{
			Model: k.model, Nodes: k.nodes, PPN: k.ppn, Msize: k.msize, Label: u.label,
			Predicted: predicted, Observed: observed,
			RelErr: (predicted - observed) / observed,
			Count:  u.count,
		})
	}
	rep.Measured = len(rep.Rows)

	// Per-model aggregates over the measured rows.
	byModel := map[string][]ReplayRow{}
	for _, row := range rep.Rows {
		byModel[row.Model] = append(byModel[row.Model], row)
	}
	names := make([]string, 0, len(byModel))
	for name := range byModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := byModel[name]
		var absErrs []float64
		within := 0
		for _, row := range rows {
			absErrs = append(absErrs, math.Abs(row.RelErr))
			if row.Predicted >= row.Observed/2 && row.Predicted <= row.Observed*2 {
				within++
			}
		}
		mean := 0.0
		for _, e := range absErrs {
			mean += e
		}
		mean /= float64(len(absErrs))
		rep.Models = append(rep.Models, ReplayModelStats{
			Model: name, Rows: len(rows),
			MeanAbsRelErr:   mean,
			MedianAbsRelErr: obs.Quantile(absErrs, 0.5),
			WithinFactor2:   float64(within) / float64(len(rows)),
		})
	}
	return rep, nil
}

// Render formats the replay report as byte-stable text.
func (r *ReplayReport) Render() string {
	t := &tablefmt.Table{
		Title: "Replay: observed (simulated) vs predicted runtimes of served decisions",
		Headers: []string{"model", "nodes", "ppn", "msize", "configuration",
			"predicted s", "observed s", "rel err", "hits"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Model, tablefmt.I(row.Nodes), tablefmt.I(row.PPN), tablefmt.I64(row.Msize),
			row.Label, tablefmt.G(row.Predicted), tablefmt.G(row.Observed),
			tablefmt.F(row.RelErr, 3), tablefmt.I(row.Count))
	}
	agg := &tablefmt.Table{
		Title:   "Replay error per model",
		Headers: []string{"model", "rows", "mean |rel err|", "median |rel err|", "within 2x"},
	}
	for _, m := range r.Models {
		agg.AddRow(m.Model, tablefmt.I(m.Rows), tablefmt.F(m.MeanAbsRelErr, 3),
			tablefmt.F(m.MedianAbsRelErr, 3), ratio(int(m.WithinFactor2*float64(m.Rows)+0.5), m.Rows))
	}
	return t.String() + "\n" + agg.String() +
		fmt.Sprintf("\nunique decisions: %d, measured: %d, fallback decisions skipped: %d\n",
			r.Unique, r.Measured, r.Skipped)
}
