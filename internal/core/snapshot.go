// Selector snapshots: a trained Selector — per-configuration learner state,
// training envelopes, quarantine records, and an identity fingerprint — is
// persisted through internal/snapshot's versioned binary codec. A loaded
// selector predicts bit-identically to the in-memory one, so training
// happens once (mpicolltune -save) and serving processes (mpicollserve)
// load the result.

package core

import (
	"fmt"
	"math"
	"os"
	"sort"

	"mpicollpred/internal/dataset"
	"mpicollpred/internal/ml"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/snapshot"
)

// Fingerprint identifies what a snapshot was trained on: the dataset (by
// name and content hash), the learner, and the train split. It travels with
// the snapshot so a serving process can report — and a loader can verify —
// exactly which training run produced the model.
type Fingerprint struct {
	Dataset     string
	DatasetHash uint64
	Lib         string
	Version     string
	Machine     string
	Learner     string
	TrainNodes  []int
}

// String renders the fingerprint for logs and /healthz.
func (fp Fingerprint) String() string {
	return fmt.Sprintf("%s/%s (%s %s on %s, nodes %v, data %016x)",
		fp.Dataset, fp.Learner, fp.Lib, fp.Version, fp.Machine, fp.TrainNodes, fp.DatasetHash)
}

// FingerprintFor builds the fingerprint of a selector trained on ds with
// the given split.
func FingerprintFor(ds *dataset.Dataset, learner string, trainNodes []int) Fingerprint {
	return Fingerprint{
		Dataset:     ds.Spec.Name,
		DatasetHash: ds.Hash(),
		Lib:         ds.Spec.Lib,
		Version:     ds.Spec.Version,
		Machine:     ds.Spec.Machine,
		Learner:     learner,
		TrainNodes:  append([]int(nil), trainNodes...),
	}
}

// Snapshot encodes the selector and its fingerprint into the framed binary
// snapshot format. The encoding is deterministic: maps are written in
// sorted key order and floats as raw bits, so the same selector always
// produces the same bytes.
func (s *Selector) Snapshot(fp Fingerprint) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	var w snapshot.Writer
	// Fingerprint section.
	w.String(fp.Dataset)
	w.U64(fp.DatasetHash)
	w.String(fp.Lib)
	w.String(fp.Version)
	w.String(fp.Machine)
	w.String(fp.Learner)
	w.Ints(fp.TrainNodes)

	// Selector metadata. The fit wall-clock slot is pinned to zero: wall
	// time is run metadata, not model state — it differs between any two
	// training runs (and between serial and parallel fitting), and encoding
	// it would break the guarantee that retraining the same data yields
	// byte-identical snapshot files. The plausibility-slack slot holds 0,
	// which has always meant DefaultPlausibilitySlack, the only slack.
	w.String(s.Coll)
	w.String(s.Learner)
	w.Ints(s.TrainNodes)
	w.F64(0)
	w.F64(0)

	// Portfolio identity: the selectable configuration ids and labels, so a
	// loader can detect drift against the code-defined portfolio.
	w.U32(uint32(len(s.configs)))
	for i, cfg := range s.configs {
		w.Int(cfg.ID)
		w.String(s.labels[i])
	}

	// Per-configuration models, sorted by id.
	ids := make([]int, 0, len(s.models))
	for id := range s.models {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.Int(id)
		if err := snapshot.EncodeLearner(&w, s.models[id]); err != nil {
			return nil, fmt.Errorf("core: snapshot config %d: %w", id, err)
		}
	}

	// Envelopes, sorted by id, then the union envelope.
	eids := make([]int, 0, len(s.envelopes))
	for id := range s.envelopes {
		eids = append(eids, id)
	}
	sort.Ints(eids)
	w.U32(uint32(len(eids)))
	for _, id := range eids {
		w.Int(id)
		encodeEnvelope(&w, s.envelopes[id])
	}
	encodeEnvelope(&w, s.envelope)

	// Quarantine records, sorted by id.
	qids := make([]int, 0, len(s.quarantined))
	for id := range s.quarantined {
		qids = append(qids, id)
	}
	sort.Ints(qids)
	w.U32(uint32(len(qids)))
	for _, id := range qids {
		w.Int(id)
		w.String(s.quarantined[id])
	}

	return snapshot.Frame(w.Bytes()), nil
}

func encodeEnvelope(w *snapshot.Writer, e Envelope) {
	w.F64s(e.FeatMin)
	w.F64s(e.FeatMax)
	w.F64(e.RespMin)
	w.F64(e.RespMax)
}

func decodeEnvelope(r *snapshot.Reader) Envelope {
	return Envelope{FeatMin: r.F64s(), FeatMax: r.F64s(), RespMin: r.F64(), RespMax: r.F64()}
}

// DecodeSnapshot rebuilds a selector from snapshot bytes. The library and
// collective are re-resolved from the fingerprint, the portfolio is checked
// against the persisted configuration ids and labels (a drifted portfolio is
// an error, not a silent mis-selection), and the guardrail fallback is
// re-armed with the library's default decision logic.
func DecodeSnapshot(data []byte) (*Selector, Fingerprint, error) {
	payload, err := snapshot.Unframe(data)
	if err != nil {
		return nil, Fingerprint{}, err
	}
	r := snapshot.NewReader(payload)

	var fp Fingerprint
	fp.Dataset = r.String()
	fp.DatasetHash = r.U64()
	fp.Lib = r.String()
	fp.Version = r.String()
	fp.Machine = r.String()
	fp.Learner = r.String()
	fp.TrainNodes = r.Ints()

	sel := &Selector{
		Coll:       r.String(),
		Learner:    r.String(),
		TrainNodes: r.Ints(),
		FitWall:    r.F64(),
		models:     map[int]ml.Regressor{},
		envelopes:  map[int]Envelope{},
	}
	slack := r.F64()
	if err := r.Err(); err != nil {
		return nil, fp, fmt.Errorf("core: snapshot header: %w", err)
	}
	if math.Float64bits(slack) != 0 {
		return nil, fp, fmt.Errorf("core: snapshot plausibility slack slot holds %v, want 0 (this build always uses %d)",
			slack, DefaultPlausibilitySlack)
	}

	// Re-resolve the portfolio and verify it matches what was trained.
	mach, set, err := mpilib.Resolve(fp.Machine, fp.Lib, sel.Coll)
	if err != nil {
		return nil, fp, fmt.Errorf("core: snapshot: %w", err)
	}
	sel.setConfigs(set.Selectable())

	nCfg := int(r.U32())
	if r.Err() == nil && nCfg != len(sel.configs) {
		return nil, fp, fmt.Errorf("core: snapshot has %d selectable configurations, this build's %s/%s portfolio has %d",
			nCfg, fp.Lib, sel.Coll, len(sel.configs))
	}
	for i := 0; i < nCfg && r.Err() == nil; i++ {
		id, label := r.Int(), r.String()
		if r.Err() != nil {
			break
		}
		if id != sel.configs[i].ID || label != sel.labels[i] {
			return nil, fp, fmt.Errorf("core: snapshot portfolio drift at position %d: snapshot has %d (%s), build has %d (%s)",
				i, id, label, sel.configs[i].ID, sel.labels[i])
		}
	}

	nModels := int(r.U32())
	for i := 0; i < nModels && r.Err() == nil; i++ {
		id := r.Int()
		m, err := snapshot.DecodeLearner(r)
		if err != nil {
			return nil, fp, fmt.Errorf("core: snapshot model %d: %w", id, err)
		}
		sel.models[id] = m
	}

	nEnv := int(r.U32())
	for i := 0; i < nEnv && r.Err() == nil; i++ {
		id := r.Int()
		sel.envelopes[id] = decodeEnvelope(r)
	}
	sel.envelope = decodeEnvelope(r)

	nQuar := int(r.U32())
	for i := 0; i < nQuar && r.Err() == nil; i++ {
		id := r.Int()
		reason := r.String()
		if sel.quarantined == nil {
			sel.quarantined = map[int]string{}
		}
		sel.quarantined[id] = reason
	}
	if err := r.Err(); err != nil {
		return nil, fp, fmt.Errorf("core: snapshot body: %w", err)
	}

	sel.selectHist = obs.Default.Histogram("core_select_seconds", obs.Labels{"learner": sel.Learner})
	sel.SetFallback(mach, set)
	return sel, fp, nil
}

// SaveSnapshot writes the selector to path atomically, in the same
// crash-safe style as the dataset cache: the bytes go to a tmp file that is
// synced and closed before it is renamed over path, and a failed save
// removes the tmp file and leaves whatever was at path untouched.
func (s *Selector) SaveSnapshot(path string, fp Fingerprint) error {
	data, err := s.Snapshot(fp)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadSnapshot reads a selector snapshot from disk.
func LoadSnapshot(path string) (*Selector, Fingerprint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Fingerprint{}, err
	}
	sel, fp, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fp, fmt.Errorf("core: loading snapshot %s: %w", path, err)
	}
	return sel, fp, nil
}
