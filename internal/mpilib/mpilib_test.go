package mpilib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

func TestPortfolioShapes(t *testing.T) {
	// The portfolio sizes mirror the paper's Table II "#algorithms".
	want := map[string]map[string]int{
		"Open MPI":  {Bcast: 9, Allreduce: 7},
		"Intel MPI": {Bcast: 12, Allreduce: 16, Alltoall: 5},
	}
	for libName, colls := range want {
		lib, err := ByName(libName)
		if err != nil {
			t.Fatal(err)
		}
		for collName, numAlgs := range colls {
			s, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.NumAlgs(); got != numAlgs {
				t.Errorf("%s %s: NumAlgs() = %d, want %d", libName, collName, got, numAlgs)
			}
			for _, c := range s.Configs {
				if c.Gen == nil {
					t.Errorf("%s %s config %d: nil generator", libName, collName, c.ID)
				}
			}
		}
	}
}

// portfolioDigest is the SHA-256 of every configuration tuple of both
// libraries, recorded before the portfolios were declared through
// CollectiveSet.add.
const portfolioDigest = "db9bf0b282b607234380a51dd1961ebba1592fec3402688a60da7459a53e0fb4"

func TestPortfolioDigestPinned(t *testing.T) {
	h := sha256.New()
	for _, lib := range Libraries() {
		for _, collName := range lib.Collectives() {
			s, _ := lib.Collective(collName)
			for _, c := range s.Configs {
				gen := runtime.FuncForPC(reflect.ValueOf(c.Gen).Pointer()).Name()
				fmt.Fprintf(h, "%s|%s|%s|%d|%d|%s|%d|%d|%t|%s\n", lib.Name, lib.Version, collName,
					c.ID, c.AlgID, c.Name, c.Params.Seg, c.Params.Fanout, c.Excluded, gen)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != portfolioDigest {
		t.Errorf("portfolio digest %s, want %s: a configuration tuple changed", got, portfolioDigest)
	}
}

func TestAllSevenCollectivesProvided(t *testing.T) {
	for _, lib := range Libraries() {
		if got := len(lib.Collectives()); got != 7 {
			t.Errorf("%s provides %d collectives (%v), want 7", lib.Name, got, lib.Collectives())
		}
		for _, collName := range []string{Reduce, Allgather, Gather, Scatter} {
			s, err := lib.Collective(collName)
			if err != nil {
				t.Fatalf("%s: %v", lib.Name, err)
			}
			mach := machine.Jupiter()
			topo := netmodel.Topology{Nodes: 4, PPN: 4}
			for _, m := range []int64{8, 8192, 1 << 20} {
				id := s.Decide(mach, topo, m)
				if _, err := s.Config(id); err != nil {
					t.Errorf("%s %s decide(%d) -> %v", lib.Name, collName, m, err)
				}
			}
		}
	}
}

func TestConfigIDsAreDense(t *testing.T) {
	for _, lib := range Libraries() {
		for _, collName := range lib.Collectives() {
			s, _ := lib.Collective(collName)
			for i, c := range s.Configs {
				if c.ID != i+1 {
					t.Fatalf("%s %s: config at index %d has id %d", lib.Name, collName, i, c.ID)
				}
			}
			if _, err := s.Config(0); err == nil {
				t.Error("Config(0) must fail (0 is the default strategy)")
			}
			if _, err := s.Config(len(s.Configs) + 1); err == nil {
				t.Error("out-of-range config lookup must fail")
			}
		}
	}
}

func TestOpenMPIBcastExcludesAlg8(t *testing.T) {
	s, _ := OpenMPI().Collective(Bcast)
	foundExcluded := false
	for _, c := range s.Configs {
		if c.AlgID == 8 {
			if !c.Excluded {
				t.Error("alg 8 (scatter_allgather) must be excluded, per the paper")
			}
			foundExcluded = true
		}
	}
	if !foundExcluded {
		t.Error("alg 8 missing from the portfolio")
	}
	for _, c := range s.Selectable() {
		if c.AlgID == 8 {
			t.Error("Selectable must not return excluded configs")
		}
	}
}

func TestOpenMPIDecisionsResolve(t *testing.T) {
	mach := machine.Hydra()
	lib := OpenMPI()
	for _, collName := range []string{Bcast, Allreduce, Alltoall} {
		s, _ := lib.Collective(collName)
		for _, topo := range []netmodel.Topology{{Nodes: 2, PPN: 1}, {Nodes: 4, PPN: 4}, {Nodes: 16, PPN: 32}} {
			for _, m := range []int64{1, 256, 4096, 65536, 1 << 20, 4 << 20} {
				if collName == Alltoall && m > 65536 {
					continue
				}
				id := s.Decide(mach, topo, m)
				if _, err := s.Config(id); err != nil {
					t.Fatalf("%s decide(%v, %d) -> invalid id %d: %v", collName, topo, m, id, err)
				}
			}
		}
	}
}

func TestIntelDecisionNearOptimal(t *testing.T) {
	// The Intel-style tuned default must pick a configuration whose true
	// (noise-free, real-machine) runtime is within a modest factor of the
	// best configuration — the property the paper observed.
	mach := machine.Hydra()
	s, _ := IntelMPI().Collective(Allreduce)
	eng := sim.NewEngine()
	for _, tc := range []struct {
		topo netmodel.Topology
		m    int64
	}{
		{netmodel.Topology{Nodes: 4, PPN: 4}, 1024},
		{netmodel.Topology{Nodes: 8, PPN: 8}, 65536},
		{netmodel.Topology{Nodes: 4, PPN: 8}, 1 << 20},
	} {
		id := s.Decide(mach, tc.topo, tc.m)
		cfg, err := s.Config(id)
		if err != nil {
			t.Fatal(err)
		}
		tDefault, err := SimulateOnce(eng, cfg, mach.Net, tc.topo, tc.m, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for _, c := range s.Selectable() {
			tt, err := SimulateOnce(eng, c, mach.Net, tc.topo, tc.m, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if best == 0 || tt < best {
				best = tt
			}
		}
		if tDefault > 1.5*best {
			t.Errorf("topo=%v m=%d: Intel default %.3gs vs best %.3gs (ratio %.2f)",
				tc.topo, tc.m, tDefault, best, tDefault/best)
		}
	}
}

func TestDecideMemoized(t *testing.T) {
	mach := machine.Jupiter()
	s, _ := IntelMPI().Collective(Alltoall)
	topo := netmodel.Topology{Nodes: 3, PPN: 4}
	a := s.Decide(mach, topo, 512)
	b := s.Decide(mach, topo, 512)
	if a != b {
		t.Errorf("memoized decide returned %d then %d", a, b)
	}
}

func TestSimulateOncePositiveAndDeterministic(t *testing.T) {
	mach := machine.SuperMUCNG()
	s, _ := OpenMPI().Collective(Bcast)
	eng := sim.NewEngine()
	topo := netmodel.Topology{Nodes: 3, PPN: 4}
	for _, c := range s.Configs {
		t1, err := SimulateOnce(eng, c, mach.Net, topo, 4096, 99, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		t2, err := SimulateOnce(eng, c, mach.Net, topo, 4096, 99, true)
		if err != nil {
			t.Fatal(err)
		}
		if t1 <= 0 || t1 != t2 {
			t.Errorf("%s: times %v, %v", c.Label(), t1, t2)
		}
	}
}

func TestFindConfigPanicsOnMissing(t *testing.T) {
	s, _ := OpenMPI().Collective(Bcast)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for missing config reference")
		}
	}()
	s.findConfig(99, coll.Params{})
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("MVAPICH"); err == nil {
		t.Error("expected error for unknown library")
	}
	if _, err := OpenMPI().Collective("scan"); err == nil {
		t.Error("expected error for unsupported collective")
	}
}

func TestLabels(t *testing.T) {
	s, _ := OpenMPI().Collective(Bcast)
	c, _ := s.Config(2) // first chain config
	if c.Label() != "chain seg=1024 fanout=2" {
		t.Errorf("Label = %q", c.Label())
	}
}
