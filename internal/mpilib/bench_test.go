package mpilib

import (
	"testing"

	"mpicollpred/internal/netmodel"
)

// BenchmarkBuildSegmented builds the two Intel schedules with the most
// repeated ops, the scatter + ring allgather broadcast (config 15) and the
// 1 KiB segmented ring allreduce (config 5), at 35x32 ranks with 4 MiB. It
// reports expanded ops built per second.
func BenchmarkBuildSegmented(b *testing.B) {
	topo := netmodel.Topology{Nodes: 35, PPN: 32}
	for _, c := range []struct {
		coll string
		id   int
	}{{Bcast, 15}, {Allreduce, 5}} {
		set, err := IntelMPI().Collective(c.coll)
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := set.Config(c.id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.coll+"/"+cfg.Name, func(b *testing.B) {
			ops := 0
			for i := 0; i < b.N; i++ {
				ops += BuildProgram(cfg, topo, 4<<20, false).NumOps()
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
