package main

import (
	"encoding/json"
	"sync"
	"testing"

	"mpicollpred/internal/core"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/eval"
	"mpicollpred/internal/serve"
)

var smoke struct {
	once sync.Once
	ds   *dataset.Dataset
	err  error
}

// smokeDataset generates d1 at smoke scale (a fraction of a second): the
// verifiers are exercised on real program output, not hand-made fixtures.
func smokeDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	smoke.once.Do(func() {
		spec, err := dataset.SpecByName("d1", dataset.ScaleSmoke)
		if err != nil {
			smoke.err = err
			return
		}
		smoke.ds, smoke.err = dataset.Generate(spec, dataset.DefaultGenOptions(spec, dataset.ScaleSmoke), nil)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.ds
}

// copyDataset returns an independent copy with a rebuilt index.
func copyDataset(t *testing.T, ds *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	cp, err := rebuild(ds)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestGenerateVerifierRejectsTamperedSample(t *testing.T) {
	ds := smokeDataset(t)
	if err := checkComplete(ds); err != nil {
		t.Fatalf("generated dataset rejected: %v", err)
	}
	if err := matchSamples(copyDataset(t, ds), ds); err != nil {
		t.Fatalf("identical datasets rejected: %v", err)
	}

	tampered := copyDataset(t, ds)
	tampered.Samples[7].Time *= 1 + 1e-12
	if err := matchSamples(tampered, ds); err == nil {
		t.Error("a sample off in the last bits was accepted")
	}
	tampered = copyDataset(t, ds)
	tampered.Samples[3].Reps++
	if err := matchSamples(tampered, ds); err == nil {
		t.Error("a sample with a different repetition count was accepted")
	}
	short := copyDataset(t, ds)
	short.Samples = short.Samples[1:]
	if err := checkComplete(short); err == nil {
		t.Error("a dataset missing a cell was accepted")
	}
}

func TestTable4VerifierRejectsTamperedDecision(t *testing.T) {
	ds := smokeDataset(t)
	mach, set, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := eval.Evaluate(ds, mach, set, "gam", []int{2, 3, 5}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEvaluation(ds, ev); err != nil {
		t.Fatalf("untampered evaluation rejected: %v", err)
	}
	digests := t4digests([]t4cell{{"full", ds, ev}})

	i := len(ev.Results) / 2
	orig := ev.Results[i]
	other := orig.PredID%len(set.Configs) + 1
	ev.Results[i].PredID = other
	ev.Results[i].PredT, _ = ds.Lookup(other, orig.Nodes, orig.PPN, orig.Msize)
	if err := checkEvaluation(ds, ev); err == nil {
		t.Error("a selection that is not the model ranking's head was accepted")
	}
	if t4digests([]t4cell{{"full", ds, ev}})[1] == digests[1] {
		t.Error("the decisions digest did not change with a decision")
	}
	ev.Results[i] = orig
	ev.Results[i].DefaultT *= 2
	if err := checkEvaluation(ds, ev); err == nil {
		t.Error("a default time that is not the measured one was accepted")
	}
}

func TestReplayedEvaluateMatchesEvaluate(t *testing.T) {
	ds := smokeDataset(t)
	mach, set, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.Evaluate(ds, mach, set, "knn", []int{2, 3}, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	_, set2, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayEvaluate(tr, ds, mach, set2, "knn", []int{2, 3}, []int{4, 5}, map[dataset.Instance]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i] != want.Results[i] {
			t.Fatalf("result %d: %+v, want %+v", i, got.Results[i], want.Results[i])
		}
	}
	if tr.tallies[0].vals["mpilib.misses"] != float64(len(want.Results)) {
		t.Errorf("%v decision misses, want one per instance", tr.tallies[0].vals["mpilib.misses"])
	}
}

func TestServeVerifierRejectsTamperedConfigID(t *testing.T) {
	ds := smokeDataset(t)
	_, set, err := ds.Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Train(ds, set, "gam", []int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	in := serve.InstanceRequest{Nodes: 3, PPN: 2, Msize: 4096}
	decision := func(p core.Prediction) serve.Decision {
		v := p.Predicted
		return serve.Decision{ConfigID: p.ConfigID, AlgID: p.AlgID, Label: p.Label, PredictedSeconds: &v}
	}
	body := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	resp := serve.SelectResponse{Model: serveModel, InstanceRequest: in, Decision: decision(sel.Select(in.Nodes, in.PPN, in.Msize))}
	if err := checkServed("select", served{in, body(resp)}, expected(sel, "select", in)); err != nil {
		t.Fatalf("faithful select response rejected: %v", err)
	}
	resp.ConfigID++
	if err := checkServed("select", served{in, body(resp)}, expected(sel, "select", in)); err == nil {
		t.Error("a select response with another config id was accepted")
	}

	pr := serve.PredictResponse{Model: serveModel, InstanceRequest: in}
	for _, p := range sel.PredictAll(in.Nodes, in.PPN, in.Msize) {
		pr.Predictions = append(pr.Predictions, decision(p))
	}
	if err := checkServed("predict", served{in, body(pr)}, expected(sel, "predict", in)); err != nil {
		t.Fatalf("faithful predict response rejected: %v", err)
	}
	pr.Predictions[0].ConfigID, pr.Predictions[1].ConfigID = pr.Predictions[1].ConfigID, pr.Predictions[0].ConfigID
	if err := checkServed("predict", served{in, body(pr)}, expected(sel, "predict", in)); err == nil {
		t.Error("a predict ranking with two config ids swapped was accepted")
	}
}
