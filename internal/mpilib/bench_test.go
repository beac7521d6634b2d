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

// BenchmarkBuildPortfolios builds every broadcast and allreduce
// configuration of both libraries at three mid-size topologies (16x16,
// 35x8 and 36x32 ranks) with 1 MiB, verify off: the schedule-build layer
// the dataset sweeps and the Intel default decision pay for every new
// instance. One op is the whole set.
func BenchmarkBuildPortfolios(b *testing.B) {
	var cfgs []Config
	for _, lib := range Libraries() {
		for _, coll := range []string{Bcast, Allreduce} {
			set, err := lib.Collective(coll)
			if err != nil {
				b.Fatal(err)
			}
			cfgs = append(cfgs, set.Configs...)
		}
	}
	topos := []netmodel.Topology{{Nodes: 16, PPN: 16}, {Nodes: 35, PPN: 8}, {Nodes: 36, PPN: 32}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, topo := range topos {
			for _, c := range cfgs {
				BuildProgram(c, topo, 1<<20, false)
			}
		}
	}
}
