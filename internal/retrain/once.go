// Offline one-shot retraining: the CLI path (mpicolltune -retrain-from)
// and the determinism tests run the collect→refit pipeline over a finished
// audit log, without a serving process, detector, or deployer. It shares
// the daemon's cycle code and content-derived measurement seeds, so the
// candidate is byte-identical to the online loop's whenever both see the
// same instance cells — note the daemon's cycle only sees cells observed
// up to the record where drift was declared, while Once ingests the whole
// log (truncate the log at the drift point to reproduce a live candidate
// exactly).

package retrain

import (
	"fmt"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
)

// OnceOptions configures an offline retraining pass.
type OnceOptions struct {
	// SnapshotPath is the base snapshot to retrain.
	SnapshotPath string
	// AuditPath is the finished audit log to ingest.
	AuditPath string
	// OutDir receives the candidate snapshot.
	OutDir string
	// CacheDir / Scale locate or regenerate the dataset (default smoke).
	CacheDir string
	Scale    dataset.Scale
	// Drift perturbs the re-measurements (nil = faithful machine).
	Drift *fault.Plan
}

// OnceReport summarizes an offline pass.
type OnceReport struct {
	Model     string     `json:"model"`
	Records   int        `json:"records"`
	Ingested  int        `json:"ingested"` // records for this model with a prediction
	Candidate *Candidate `json:"candidate"`
}

// Once reads the audit log, collects the instance cells served by the
// snapshot's model, re-measures them under the drift plan, and refits the
// affected configurations. The candidate lands in OutDir.
func Once(opts OnceOptions) (*OnceReport, error) {
	_, fp, err := core.LoadSnapshot(opts.SnapshotPath)
	if err != nil {
		return nil, fmt.Errorf("retrain: loading snapshot: %w", err)
	}
	model := fp.Dataset + "-" + fp.Learner

	recs, err := audit.ReadLog(opts.AuditPath)
	if err != nil {
		return nil, err
	}
	rep := &OnceReport{Model: model, Records: len(recs)}
	seen := map[cell]struct{}{}
	var cells []cell
	for _, r := range recs {
		if r.Model != model || r.PredictedSeconds == nil {
			continue
		}
		rep.Ingested++
		c := cell{nodes: r.Nodes, ppn: r.PPN, msize: r.Msize}
		if _, ok := seen[c]; ok {
			continue
		}
		if len(cells) >= maxCells {
			continue
		}
		seen[c] = struct{}{}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("retrain: audit log has no predicted decisions for model %q", model)
	}

	rt := newRetrainer(opts.CacheDir, opts.OutDir, opts.Scale)
	cand, err := rt.cycle(model, opts.SnapshotPath, cells, opts.Drift)
	if err != nil {
		return nil, err
	}
	rep.Candidate = cand
	return rep, nil
}
