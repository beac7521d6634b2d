// collective_explorer sweeps every collective portfolio of a library on one
// machine and prints, per message size, the fastest algorithm configuration
// and its margin over the slowest — a quick map of how contested each
// selection problem is.
//
// Run with: go run ./examples/collective_explorer [-lib "Open MPI"] [-nodes 8] [-ppn 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"mpicollpred/internal/machine"
	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/sim"
)

func main() {
	libName := flag.String("lib", "Open MPI", "library profile: 'Open MPI' or 'Intel MPI'")
	machName := flag.String("machine", "Hydra", "machine: Hydra, Jupiter, SuperMUC-NG")
	nodes := flag.Int("nodes", 8, "compute nodes")
	ppn := flag.Int("ppn", 8, "processes per node")
	flag.Parse()

	lib, err := mpilib.ByName(*libName)
	if err != nil {
		log.Fatal(err)
	}
	mach, err := machine.ByName(*machName)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := mach.Topo(*nodes, *ppn)
	if err != nil {
		log.Fatal(err)
	}

	eng := sim.NewEngine()
	fmt.Printf("%s on %s, %d x %d processes\n", lib.Name, mach.Name, *nodes, *ppn)
	for _, collName := range lib.Collectives() {
		set, err := lib.Collective(collName)
		if err != nil {
			log.Fatal(err)
		}
		msizes := []int64{16, 1024, 65536, 1048576}
		if collName == mpilib.Alltoall {
			msizes = []int64{16, 1024, 16384, 65536}
		}
		fmt.Printf("\n%s (%d algorithms, %d configurations):\n", collName, set.NumAlgs(), len(set.Configs))
		for _, m := range msizes {
			var bestCfg, worstCfg mpilib.Config
			bestT, worstT := math.Inf(1), 0.0
			for _, cfg := range set.Selectable() {
				t, err := mpilib.SimulateOnce(eng, cfg, mach.Net, topo, m, 5, false)
				if err != nil {
					log.Fatal(err)
				}
				if t < bestT {
					bestCfg, bestT = cfg, t
				}
				if t > worstT {
					worstCfg, worstT = cfg, t
				}
			}
			fmt.Printf("  %8d B  best: %-30s %10.4gs   worst: %-30s (%.0fx slower)\n",
				m, bestCfg.Label(), bestT, worstCfg.Label(), worstT/bestT)
		}
	}
	fmt.Println("\nthe best/worst spread is the price of a wrong selection - the problem the")
	fmt.Println("paper's per-configuration regression models solve automatically.")
}
