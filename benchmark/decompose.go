package main

import (
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// The traced runs of generate and table4_intel follow their timed section
// with an untimed decomposition pass: the simulations the workload ran
// inside the program, replayed once each through the layers' public calls —
// mpilib.BuildProgram (schedule build), Engine.Run (event engine) on a
// netmodel.Model (cost model) — with statistics collection on. It is where
// the coll, sim and netmodel metrics come from.

// simulate builds cfg's schedule for (topo, m) and runs it once under spans,
// publishing the engine's and the cost model's statistics. It returns the
// makespan.
func simulate(tr *tracer, eng *sim.Engine, cfg mpilib.Config, prm netmodel.Params,
	topo netmodel.Topology, m int64, seed uint64, noisy bool) (float64, error) {
	end := tr.start("coll.build")
	prog := mpilib.BuildProgram(cfg, topo, m, false)
	end()
	tr.add("coll.ops", float64(prog.NumOps()))

	model := netmodel.New(prm, topo, seed, noisy)
	model.CollectStats(true)
	eng.CollectStats(true)
	end = tr.start("sim.run")
	res, err := eng.Run(prog, model, nil, nil)
	end()
	if err != nil {
		return 0, err
	}
	st, ns := res.Stats, model.Stats()
	tr.add("sim.events", float64(res.Events))
	tr.raise("sim.peak_heap_depth", float64(st.PeakHeapDepth))
	tr.add("sim.blocked", float64(st.BlockedSends+st.BlockedRecvs))
	tr.add("sim.p2p_ops", float64(st.Sends+st.Recvs))
	tr.add("netmodel.messages", float64(ns.Messages))
	tr.add("netmodel.inter_node", float64(ns.InterNode))
	tr.add("netmodel.bytes", float64(ns.Bytes))
	tr.add("netmodel.queue_delay_sim_s", ns.QueueDelay)
	return res.Time, nil
}

// decompose runs every cell of one generate round once, serially, on the
// machine's network with measurement noise on.
func (g *generate) decompose(r *run) error {
	eng := sim.NewEngine()
	for _, spec := range g.specs {
		mach, set, err := spec.Resolve()
		if err != nil {
			return err
		}
		for _, in := range gridInstances(spec) {
			topo, err := mach.Topo(in.Nodes, in.PPN)
			if err != nil {
				return err
			}
			for _, cfg := range set.Configs {
				seed := sim.Seed(r.seed, uint64(cfg.ID), uint64(in.Nodes), uint64(in.PPN), uint64(in.Msize))
				if _, err := simulate(r.tr, eng, cfg, mach.Net, topo, in.Msize, seed, true); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// gridInstances enumerates a spec's instances in generation order.
func gridInstances(spec dataset.Spec) []dataset.Instance {
	var out []dataset.Instance
	for _, n := range spec.Nodes {
		for _, ppn := range spec.PPNs {
			for _, m := range spec.Msizes {
				out = append(out, dataset.Instance{Nodes: n, PPN: ppn, Msize: m})
			}
		}
	}
	return out
}
