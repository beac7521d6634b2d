package dataset

import (
	"math"
	"testing"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
)

// TestCellRowDependsOnlyOnSpecAndCell: a cell's row is a function of the
// spec and the cell alone. A seeded, shuffled subset of a smoke grid's
// cells, measured on its own through one bench.Sweep runner, must give
// rows bit-equal to the same cells' rows from a full Generate. Re-measuring
// sampled cells of a committed cache to verify it depends on this; the
// byte-identity of parallel sweeps only implies it.
func TestCellRowDependsOnlyOnSpecAndCell(t *testing.T) {
	spec, err := SpecByName("d1", ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	mach, set, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("straggler:node=0,factor=4;clock:prob=0.2,scale=0.0001")
	if err != nil {
		t.Fatal(err)
	}
	faulty := DefaultGenOptions(spec, ScaleSmoke)
	faulty.Faults = plan
	faulty.OutlierRetries = 2

	for name, opts := range map[string]bench.Options{
		"default": DefaultGenOptions(spec, ScaleSmoke),
		"faults":  faulty,
	} {
		t.Run(name, func(t *testing.T) {
			full, err := Generate(spec, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[sampleKey]Sample{}
			for _, s := range full.Samples {
				want[sampleKey{s.ConfigID, s.Nodes, s.PPN, s.Msize}] = s
			}

			// Every cell of the grid, built the way generate builds it.
			var cells []bench.Cell
			for _, n := range spec.Nodes {
				for _, ppn := range spec.PPNs {
					topo, err := mach.Topo(n, ppn)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range spec.Msizes {
						for _, cfg := range set.Configs {
							cells = append(cells, bench.Cell{
								Cfg: cfg, Net: mach.Net, Topo: topo, Msize: m,
								Seed:    sim.Seed(nameSeed(spec.Name), uint64(cfg.ID), uint64(n), uint64(ppn), uint64(m)),
								MaxReps: adaptReps(opts.MaxReps, spec.Coll, topo.P(), m),
							})
						}
					}
				}
			}
			if len(cells) != len(full.Samples) {
				t.Fatalf("grid has %d cells, Generate wrote %d rows", len(cells), len(full.Samples))
			}
			// A seeded Fisher-Yates shuffle; the first eighth is the subset.
			rng := sim.NewRNG(7)
			for i := len(cells) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				cells[i], cells[j] = cells[j], cells[i]
			}
			subset := cells[:len(cells)/8]

			got := make([]Sample, len(subset))
			par.AtProcs(1, func() {
				err = bench.Sweep(subset, opts, nil, func(i int, meas bench.Measurement) error {
					got[i] = NewSample(subset[i], meas)
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range got {
				w, ok := want[sampleKey{g.ConfigID, g.Nodes, g.PPN, g.Msize}]
				if !ok {
					t.Fatalf("no full-grid row for %+v", g)
				}
				if g.AlgID != w.AlgID || g.Reps != w.Reps || g.Exhausted != w.Exhausted ||
					math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
					math.Float64bits(g.Consumed) != math.Float64bits(w.Consumed) {
					t.Errorf("row measured alone differs from the full grid's:\n got %+v\nwant %+v", g, w)
				}
			}
		})
	}
}
