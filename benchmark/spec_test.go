package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"mpicollpred/internal/dataset"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONFollowsTheContract(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("workload %s has no implementation: %v", w.Name, err)
		}
	}
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	if m, ok := spec.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better; got %+v", m)
	}
	for _, m := range spec.EndToEnd {
		if setup, _ := spec.endToEnd("setup_s"); m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestMetricsAreComputed runs the metric derivations on an empty run and
// requires exactly the BENCHMARK.json names, so the catalog and the code
// cannot drift apart.
func TestMetricsAreComputed(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	r := &run{rounds: 1, timed: 1, ops: []float64{1}, setupTimes: []float64{1}}
	for _, c := range []struct {
		catalog []metricSpec
		values  map[string]float64
	}{
		{spec.EndToEnd, endToEnd(r)},
		{spec.PerLayer, layerMetrics(newTracer(), r)},
	} {
		if _, err := fill(c.catalog, c.values); err != nil {
			t.Error(err)
		}
	}
}

func TestLayerMapNamesExistingMetricsAndWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Metrics map[string]struct {
			Moves []string `json:"moves"`
			Most  []string `json:"most"`
			Least []string `json:"least"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	var layerNames []string
	for _, m := range spec.PerLayer {
		layerNames = append(layerNames, m.Name)
		if _, ok := lm.Metrics[m.Name]; !ok {
			t.Errorf("layers.json has no entry for %s", m.Name)
		}
	}
	sort.Strings(layerNames)
	for name, e := range lm.Metrics {
		if i := sort.SearchStrings(layerNames, name); i == len(layerNames) || layerNames[i] != name {
			t.Errorf("layers.json names %s, which is not a per-layer metric", name)
		}
		for _, m := range e.Moves {
			if _, ok := spec.endToEnd(m); !ok {
				t.Errorf("%s moves %s, which is not an end-to-end metric", name, m)
			}
		}
		for _, w := range append(append([]string(nil), e.Most...), e.Least...) {
			if !spec.hasWorkload(w) {
				t.Errorf("%s names workload %s, which does not exist", name, w)
			}
		}
	}
}

func TestPerturbIsDeterministic(t *testing.T) {
	ds := smokeDataset(t)
	same, err := perturb(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same.Hash() != ds.Hash() {
		t.Error("seed 1 changed the committed times")
	}
	a, err := perturb(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := perturb(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := perturb(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Error("the same seed gave different datasets")
	}
	if a.Hash() == c.Hash() || a.Hash() == ds.Hash() {
		t.Error("different seeds gave the same dataset")
	}
	for i, s := range a.Samples {
		ratio := s.Time / ds.Samples[i].Time
		if ratio < 0.7 || ratio > 1.4 {
			t.Fatalf("row %d scaled by %v, far outside a sigma-0.05 lognormal", i, ratio)
		}
		s.Time = ds.Samples[i].Time
		if s != ds.Samples[i] {
			t.Fatalf("row %d changed beyond its time", i)
		}
	}
	if rep := a.Validate(); !rep.Clean() {
		t.Errorf("perturbed dataset invalid: %s", rep)
	}
	if _, ok := a.Lookup(a.Samples[0].ConfigID, a.Samples[0].Nodes, a.Samples[0].PPN, a.Samples[0].Msize); !ok {
		t.Error("perturbed dataset has no lookup index")
	}
}

func TestTestSubsetKeepsTrainingRowsAndAQuarterOfTheTestInstances(t *testing.T) {
	spec, err := dataset.SpecByName("d7", dataset.ScaleMid)
	if err != nil {
		t.Fatal(err)
	}
	// A one-configuration stand-in for d7's grid: testSubset only looks at
	// instances, and a full d7 would take minutes to generate.
	ds := &dataset.Dataset{Spec: spec}
	for _, in := range gridInstances(spec) {
		ds.Samples = append(ds.Samples, dataset.Sample{ConfigID: 1, AlgID: 1,
			Nodes: in.Nodes, PPN: in.PPN, Msize: in.Msize, Time: 1e-6, Reps: 1})
	}
	ds, err = rebuild(ds)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := testSubset(ds)
	if err != nil {
		t.Fatal(err)
	}
	test := map[int]bool{7: true, 13: true, 19: true, 27: true, 35: true}
	var trainRows, testRows int
	perPPN := map[int]int{}
	for _, s := range ds.Samples {
		if !test[s.Nodes] {
			trainRows++
		}
	}
	for _, s := range sub.Samples {
		if test[s.Nodes] {
			testRows++
			perPPN[s.PPN]++
		} else {
			trainRows--
		}
	}
	if trainRows != 0 {
		t.Errorf("%d training rows lost", trainRows)
	}
	if testRows != 50 {
		t.Errorf("%d test instances kept, want 50", testRows)
	}
	for ppn, n := range perPPN {
		if n < 12 || n > 13 {
			t.Errorf("ppn %d kept on %d test instances, want 12 or 13", ppn, n)
		}
	}
}
