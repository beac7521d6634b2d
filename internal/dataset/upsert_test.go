package dataset

import (
	"errors"
	"math"
	"testing"
)

func upsertBase(t *testing.T) *Dataset {
	t.Helper()
	d := &Dataset{Spec: Spec{Name: "dt", Lib: "Open MPI", Version: "4.0.2",
		Coll: "bcast", Machine: "Hydra"}}
	d.Samples = []Sample{
		{ConfigID: 1, AlgID: 1, Nodes: 2, PPN: 1, Msize: 64, Time: 1e-5, Reps: 2, Consumed: 2e-5},
		{ConfigID: 2, AlgID: 2, Nodes: 2, PPN: 1, Msize: 64, Time: 2e-5, Reps: 2, Consumed: 4e-5},
	}
	d.buildIndex()
	return d
}

func TestUpsertReplacesCellInPlace(t *testing.T) {
	d := upsertBase(t)
	h0 := d.Hash()
	replaced, err := d.Upsert(Sample{ConfigID: 1, AlgID: 1, Nodes: 2, PPN: 1, Msize: 64,
		Time: 4e-5, Reps: 2, Consumed: 8e-5})
	if err != nil || !replaced {
		t.Fatalf("upsert existing cell: replaced=%v err=%v", replaced, err)
	}
	if len(d.Samples) != 2 {
		t.Fatalf("replacement grew the dataset to %d samples", len(d.Samples))
	}
	if got, _ := d.Lookup(1, 2, 1, 64); got != 4e-5 {
		t.Fatalf("index not updated: lookup = %v", got)
	}
	if d.Samples[0].Time != 4e-5 {
		t.Fatalf("sample not replaced in place: %+v", d.Samples[0])
	}
	if d.Hash() == h0 {
		t.Fatalf("hash unchanged after replacing a cell")
	}
	if rep := d.Validate(); !rep.Clean() && len(rep.Bad) > 0 {
		t.Fatalf("upsert produced invalid dataset: %s", rep)
	}
}

func TestUpsertAppendsNewCell(t *testing.T) {
	d := upsertBase(t)
	replaced, err := d.Upsert(Sample{ConfigID: 1, AlgID: 1, Nodes: 4, PPN: 1, Msize: 64,
		Time: 3e-5, Reps: 2, Consumed: 6e-5})
	if err != nil || replaced {
		t.Fatalf("upsert new cell: replaced=%v err=%v", replaced, err)
	}
	if len(d.Samples) != 3 {
		t.Fatalf("append kept %d samples", len(d.Samples))
	}
	if got, ok := d.Lookup(1, 4, 1, 64); !ok || got != 3e-5 {
		t.Fatalf("appended cell not indexed: %v %v", got, ok)
	}
}

func TestUpsertRejectsBadObservation(t *testing.T) {
	d := upsertBase(t)
	h0 := d.Hash()
	bad := []Sample{
		{ConfigID: 1, Nodes: 2, PPN: 1, Msize: 64, Time: math.NaN(), Reps: 2},
		{ConfigID: 1, Nodes: 2, PPN: 1, Msize: 64, Time: -1, Reps: 2},
		{ConfigID: 1, Nodes: 0, PPN: 1, Msize: 64, Time: 1e-5, Reps: 2},
	}
	for _, s := range bad {
		if _, err := d.Upsert(s); !errors.Is(err, ErrBadSample) {
			t.Errorf("bad sample %+v accepted (err=%v)", s, err)
		}
	}
	if d.Hash() != h0 {
		t.Fatalf("rejected observations still mutated the dataset")
	}
}

func TestInstancesOnUpsertedDataset(t *testing.T) {
	d := &Dataset{Spec: Spec{Name: "dt", Lib: "Open MPI", Version: "4.0.2",
		Coll: "bcast", Machine: "Hydra"}}
	for _, n := range []int{2, 4} {
		for _, ppn := range []int{1, 2} {
			for _, m := range []int64{64, 4096} {
				for cfg := 1; cfg <= 2; cfg++ {
					d.Samples = append(d.Samples, Sample{ConfigID: cfg, AlgID: cfg,
						Nodes: n, PPN: ppn, Msize: m, Time: 1e-5, Reps: 2, Consumed: 2e-5})
				}
			}
		}
	}
	d.buildIndex()
	grid := len(d.Samples)
	// New cells out of grid order: one on an existing node count that sorts
	// before every grid cell, one on a new node count between the grid's.
	added := []Instance{{Nodes: 3, PPN: 2, Msize: 16}, {Nodes: 2, PPN: 1, Msize: 1}, {Nodes: 3, PPN: 1, Msize: 64}}
	for _, in := range added {
		if _, err := d.Upsert(Sample{ConfigID: 1, AlgID: 1, Nodes: in.Nodes, PPN: in.PPN,
			Msize: in.Msize, Time: 3e-5, Reps: 2, Consumed: 6e-5}); err != nil {
			t.Fatal(err)
		}
	}
	for i, in := range added {
		s := d.Samples[grid+i]
		if got := (Instance{s.Nodes, s.PPN, s.Msize}); got != in {
			t.Fatalf("sample %d is %+v, want the upserted cell %+v appended after the grid", grid+i, got, in)
		}
	}

	on := func(in Instance, nodes []int) bool {
		for _, n := range nodes {
			if in.Nodes == n {
				return true
			}
		}
		return false
	}
	for _, nodes := range [][]int{{2, 3}, {3}, {4, 2, 3}, {99}} {
		got := d.InstancesOn(nodes)
		want := 0
		for _, in := range d.Instances() {
			if on(in, nodes) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("InstancesOn(%v) returned %d instances, want %d", nodes, len(got), want)
		}
		for i, in := range got {
			if !on(in, nodes) {
				t.Fatalf("InstancesOn(%v) returned %+v", nodes, in)
			}
			if i == 0 {
				continue
			}
			p := got[i-1]
			if p.Nodes > in.Nodes || p.Nodes == in.Nodes && (p.PPN > in.PPN || p.PPN == in.PPN && p.Msize >= in.Msize) {
				t.Fatalf("InstancesOn(%v) not sorted by (nodes, ppn, msize): %+v before %+v", nodes, p, in)
			}
		}
	}
	if got := d.InstancesOn([]int{2}); got[0] != (Instance{Nodes: 2, PPN: 1, Msize: 1}) {
		t.Fatalf("upserted cell does not lead its node count: %+v", got)
	}
}
