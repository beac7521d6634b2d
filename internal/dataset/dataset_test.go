package dataset

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/mpilib"
)

func TestSpecsMatchTableII(t *testing.T) {
	specs := Specs(ScaleFull)
	if len(specs) != 8 {
		t.Fatalf("expected 8 datasets, got %d", len(specs))
	}
	// Table II identity columns.
	want := []struct {
		name, lib, coll, mach string
		nNodes, nPPN, nMsizes int
	}{
		{"d1", "Open MPI", mpilib.Bcast, "Hydra", 11, 10, 10},
		{"d2", "Open MPI", mpilib.Allreduce, "Hydra", 11, 10, 10},
		{"d3", "Open MPI", mpilib.Bcast, "Jupiter", 10, 7, 10},
		{"d4", "Open MPI", mpilib.Allreduce, "Jupiter", 10, 7, 10},
		{"d5", "Intel MPI", mpilib.Allreduce, "Hydra", 11, 10, 10},
		{"d6", "Intel MPI", mpilib.Alltoall, "Hydra", 11, 10, 8},
		{"d7", "Intel MPI", mpilib.Bcast, "Hydra", 11, 10, 10},
		{"d8", "Open MPI", mpilib.Bcast, "SuperMUC-NG", 5, 5, 8},
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.Lib != w.lib || s.Coll != w.coll || s.Machine != w.mach {
			t.Errorf("%s: identity mismatch: %+v", w.name, s)
		}
		if len(s.Nodes) != w.nNodes || len(s.PPNs) != w.nPPN || len(s.Msizes) != w.nMsizes {
			t.Errorf("%s: grid sizes %d/%d/%d, want %d/%d/%d", w.name,
				len(s.Nodes), len(s.PPNs), len(s.Msizes), w.nNodes, w.nPPN, w.nMsizes)
		}
		if _, _, err := s.Resolve(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestSpecGridsWithinMachineLimits(t *testing.T) {
	for _, scale := range []Scale{ScaleFull, ScaleMid, ScaleSmoke} {
		for _, s := range Specs(scale) {
			mach, _, err := s.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range s.Nodes {
				for _, ppn := range s.PPNs {
					if _, err := mach.Topo(n, ppn); err != nil {
						t.Errorf("%s (%s): invalid cell %dx%d: %v", s.Name, scale, n, ppn, err)
					}
				}
			}
		}
	}
}

func TestMidScaleKeepsFigureCells(t *testing.T) {
	// The figures need specific test cells: Fig 4/5/6 use ppn {1,16,32} on
	// Hydra, Fig 7 ppn {1,8,16} on Jupiter, Fig 8 ppn {1,24,48}.
	has := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	for _, s := range Specs(ScaleMid) {
		switch s.Machine {
		case "Hydra":
			if s.Name == "d6" {
				// d6 (alltoall) feeds no figure; its mid grid is thinner.
				continue
			}
			for _, v := range []int{1, 16, 32} {
				if !has(s.PPNs, v) {
					t.Errorf("%s: mid scale missing Hydra ppn %d", s.Name, v)
				}
			}
		case "Jupiter":
			for _, v := range []int{1, 8, 16} {
				if !has(s.PPNs, v) {
					t.Errorf("%s: mid scale missing Jupiter ppn %d", s.Name, v)
				}
			}
		case "SuperMUC-NG":
			for _, v := range []int{1, 24, 48} {
				if !has(s.PPNs, v) {
					t.Errorf("%s: mid scale missing SuperMUC ppn %d", s.Name, v)
				}
			}
		}
		for _, n := range []int{27, 35} {
			if !has(s.Nodes, n) {
				t.Errorf("%s: mid scale missing test node count %d", s.Name, n)
			}
		}
	}
}

func smokeDataset(t *testing.T, name string) *Dataset {
	t.Helper()
	spec, err := SpecByName(name, ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	// Narrow further for test speed: two nodes values, one ppn.
	spec.Nodes = []int{2, 3}
	spec.PPNs = []int{2}
	d, err := Generate(spec, bench.Options{MaxReps: 2, SyncJitter: 1e-7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateSmoke(t *testing.T) {
	d := smokeDataset(t, "d2")
	_, set, _ := d.Spec.Resolve()
	wantSamples := len(set.Configs) * d.Spec.NumInstances()
	if len(d.Samples) != wantSamples {
		t.Fatalf("samples = %d, want %d", len(d.Samples), wantSamples)
	}
	for _, s := range d.Samples {
		if s.Time <= 0 {
			t.Fatalf("non-positive time in sample %+v", s)
		}
	}
	if d.Consumed <= 0 {
		t.Error("consumed budget must be positive")
	}
	// Lookup and Best agree with the raw samples.
	in := d.Instances()[0]
	id, best, ok := d.Best(set, in.Nodes, in.PPN, in.Msize)
	if !ok {
		t.Fatal("Best found nothing")
	}
	for _, cfg := range set.Selectable() {
		tt, ok := d.Lookup(cfg.ID, in.Nodes, in.PPN, in.Msize)
		if !ok {
			t.Fatalf("missing lookup for config %d", cfg.ID)
		}
		if tt < best {
			t.Errorf("Best returned %d (%v) but config %d is faster (%v)", id, best, cfg.ID, tt)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smokeDataset(t, "d1")
	b := smokeDataset(t, "d1")
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample count differs")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := smokeDataset(t, "d6")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Spec.Name != d.Spec.Name || d2.Spec.Lib != d.Spec.Lib || d2.Spec.Coll != d.Spec.Coll {
		t.Fatalf("spec identity lost: %+v", d2.Spec)
	}
	if d2.Consumed != d.Consumed {
		t.Error("consumed budget lost")
	}
	if len(d2.Samples) != len(d.Samples) {
		t.Fatalf("sample count %d vs %d", len(d2.Samples), len(d.Samples))
	}
	for i := range d.Samples {
		if d.Samples[i] != d2.Samples[i] {
			t.Fatalf("sample %d mismatch", i)
		}
	}
	// Reconstructed grids must match the generated ones.
	if len(d2.Spec.Nodes) != len(d.Spec.Nodes) || len(d2.Spec.Msizes) != len(d.Spec.Msizes) {
		t.Error("grid reconstruction broken")
	}
}

func TestCSVAccountingRoundTrip(t *testing.T) {
	d := smokeDataset(t, "d1")
	// Force a mix of values through the exhausted/consumed columns.
	d.Samples[0].Exhausted = true
	d.Samples[0].Consumed = 0.123
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Samples[0].Exhausted || d2.Samples[0].Consumed != 0.123 {
		t.Errorf("accounting columns lost: %+v", d2.Samples[0])
	}
	if d2.ExhaustedCount() != d.ExhaustedCount() {
		t.Errorf("exhausted count %d vs %d", d2.ExhaustedCount(), d.ExhaustedCount())
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("not,a,dataset\n")); err == nil {
		t.Error("expected error for malformed meta")
	}
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Error("expected error for empty input")
	}
	// The 7-column layout of early caches, without the accounting columns,
	// is refused at its header, and such a row under the full header too.
	const meta = "#meta,d1,Open MPI,4.0.2,bcast,Hydra,12.5\n"
	short := meta + "config_id,alg_id,nodes,ppn,msize,time_s,reps\n1,1,4,8,1024,0.002,5\n"
	if _, err := ReadCSV(bytes.NewBufferString(short)); err == nil || !strings.Contains(err.Error(), "unexpected header") {
		t.Errorf("7-column file: %v", err)
	}
	row := meta + strings.Join(csvHeader, ",") + "\n1,1,4,8,1024,0.002,5\n"
	if _, err := ReadCSV(bytes.NewBufferString(row)); err == nil || !strings.Contains(err.Error(), "7 columns") {
		t.Errorf("7-column row: %v", err)
	}
}

func TestLoadOrGenerateCaches(t *testing.T) {
	dir := t.TempDir()
	spec, _ := SpecByName("d4", ScaleSmoke)
	// Shrink via a custom generate+save to keep the test fast, then hit
	// the cache path of LoadOrGenerate.
	spec.Nodes = []int{2}
	spec.PPNs = []int{2}
	d, err := Generate(spec, bench.Options{MaxReps: 1, SyncJitter: 1e-7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Save(dir, ScaleSmoke); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrGenerate(dir, "d4", ScaleSmoke, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(d.Samples) {
		t.Errorf("cache returned %d samples, want %d", len(got.Samples), len(d.Samples))
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestProgressCallback(t *testing.T) {
	spec, _ := SpecByName("d2", ScaleSmoke)
	spec.Nodes = []int{2}
	spec.PPNs = []int{1}
	calls := 0
	lastDone := 0
	_, err := Generate(spec, bench.Options{MaxReps: 1}, func(done, total int) {
		calls++
		if done <= lastDone {
			t.Error("progress not monotone")
		}
		lastDone = done
		if total != spec.NumInstances()*11 { // 11 Open MPI allreduce configs
			t.Errorf("total = %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != spec.NumInstances() {
		t.Errorf("progress called %d times, want %d", calls, spec.NumInstances())
	}
}
