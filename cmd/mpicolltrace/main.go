// Command mpicolltrace runs one collective-algorithm configuration through
// the simulator with full instrumentation and exports a Chrome trace-event
// JSON file: per-rank send/recv/compute timelines plus per-node NIC and
// memory-bus occupancy. Open the output at chrome://tracing or
// https://ui.perfetto.dev to inspect how an algorithm schedules its
// communication.
//
// Usage:
//
//	mpicolltrace -lib "Open MPI" -coll bcast -config 3 -nodes 8 -ppn 4 -msize 65536 -o trace.json
//	mpicolltrace -lib "Open MPI" -coll bcast -list
//	mpicolltrace -machine Jupiter -coll allreduce -config 0 -nodes 4 -ppn 4 -msize 4096 -noise
//
// -config 0 runs the configuration the library's own decision logic picks
// for the instance.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpicollpred/internal/fault"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/sim"
)

func main() {
	var (
		machName  = flag.String("machine", "Hydra", "machine profile (Table I)")
		libName   = flag.String("lib", "Open MPI", "MPI library profile")
		collName  = flag.String("coll", mpilib.Bcast, "collective operation")
		cfgID     = flag.Int("config", 0, "configuration id (0 = library default decision)")
		nodes     = flag.Int("nodes", 8, "number of compute nodes")
		ppn       = flag.Int("ppn", 4, "processes per node")
		msize     = flag.Int64("msize", 65536, "message size in bytes")
		out       = flag.String("o", "trace.json", "trace output file")
		noise     = flag.Bool("noise", false, "enable network noise (default: deterministic)")
		faultSpec = flag.String("faults", "", "fault plan, e.g. 'straggler:node=0,factor=4' (see internal/fault)")
		seed      = flag.Uint64("seed", 1, "noise seed")
		metrics   = flag.String("metrics", "", "write a metrics-registry snapshot to this file")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprof   = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
		list      = flag.Bool("list", false, "list the library's configurations for the collective and exit")
		verbose   = flag.Bool("v", false, "verbose (debug) logging")
		quiet     = flag.Bool("quiet", false, "suppress informational logging")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verbose, *quiet))
	stopProfiles, err := obs.StartProfiles(*cpuprof, *memprof)
	fail(err)
	finish = func() error {
		finish = func() error { return nil }
		return stopProfiles()
	}
	defer func() { fail(finish()) }()

	lib, err := mpilib.ByName(*libName)
	fail(err)
	set, err := lib.Collective(*collName)
	fail(err)

	if *list {
		fmt.Printf("%-4s %-4s %s\n", "id", "alg", "configuration")
		for _, c := range set.Configs {
			note := ""
			if c.Excluded {
				note = "  (excluded from selection)"
			}
			fmt.Printf("%-4d %-4d %s%s\n", c.ID, c.AlgID, c.Label(), note)
		}
		return
	}

	mach, err := machine.ByName(*machName)
	fail(err)
	topo, err := mach.Topo(*nodes, *ppn)
	fail(err)

	if *cfgID == mpilib.DefaultID {
		*cfgID = set.Decide(mach, topo, *msize)
		log.Infof("library decision: configuration %d", *cfgID)
	}
	cfg, err := set.Config(*cfgID)
	fail(err)
	log.Infof("tracing %s %s on %s, %dx%d processes, %d bytes",
		*libName, cfg.Label(), mach.Name, *nodes, *ppn, *msize)

	plan, err := fault.Parse(*faultSpec)
	fail(err)

	tr := obs.NewTrace()
	model := netmodel.New(mach.Net, topo, *seed, *noise)
	if inj := plan.Injector(topo.Nodes); inj != nil {
		model.SetFaults(inj)
		log.Infof("fault plan active: %s", plan.String())
	}
	model.SetTracer(tr)
	model.CollectStats(true)
	eng := sim.NewEngine()
	eng.SetTracer(tr)
	eng.CollectStats(true)

	prog := mpilib.BuildProgram(cfg, topo, *msize, false)
	res, err := eng.Run(prog, model, nil, nil)
	fail(err)
	ss := res.Stats
	ns := model.Stats()

	f, err := os.Create(*out)
	fail(err)
	if err := tr.WriteJSON(f); err != nil {
		_ = f.Close() // already failing with the write error
		fail(err)
	}
	fail(f.Close())

	fmt.Printf("makespan      %.6g s\n", res.Time)
	fmt.Printf("events        %d (peak ready-queue depth %d)\n", res.Events, ss.PeakHeapDepth)
	fmt.Printf("sends         %d (%d eager, %d rendezvous), recvs %d, computes %d\n",
		ss.Sends, ss.EagerSends, ss.RendezvousSends, ss.Recvs, ss.Computes)
	fmt.Printf("matched       %d messages, blocked %d sends / %d recvs\n",
		ss.MessagesMatched, ss.BlockedSends, ss.BlockedRecvs)
	fmt.Printf("network       %d msgs (%d inter-node), %d bytes\n", ns.Messages, ns.InterNode, ns.Bytes)
	fmt.Printf("nic queueing  %.6g s total, %.6g s max\n", ns.QueueDelay, ns.MaxQueueDelay)
	fmt.Printf("trace         %d spans -> %s\n", tr.Len(), *out)

	if *metrics != "" {
		labels := obs.Labels{"machine": mach.Name, "lib": *libName, "coll": *collName}
		obs.Default.Counter("sim_events_total", labels).Add(int64(res.Events))
		obs.Default.Counter("sim_messages_matched_total", labels).Add(int64(ss.MessagesMatched))
		obs.Default.Counter("sim_eager_sends_total", labels).Add(int64(ss.EagerSends))
		obs.Default.Counter("sim_rendezvous_sends_total", labels).Add(int64(ss.RendezvousSends))
		obs.Default.Gauge("net_queue_delay_sim_seconds", labels).Set(ns.QueueDelay)
		obs.Default.Gauge("sim_makespan_sim_seconds", labels).Set(res.Time)
		fail(obs.Default.DumpFile(*metrics))
		log.Infof("metrics snapshot -> %s", *metrics)
	}
}

// finish stops the profiles; main installs it, and it disarms itself on its
// first call. fail runs it too, because os.Exit skips deferred calls.
var finish = func() error { return nil }

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpicolltrace: %v\n", err)
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "mpicolltrace: %v\n", err)
		}
		os.Exit(1)
	}
}
