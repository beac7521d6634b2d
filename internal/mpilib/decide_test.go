package mpilib

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/par"
	"mpicollpred/internal/sim"
)

// exhaustiveArgmin is the unpruned serial reference for fastestConfigs: every
// configuration simulated to completion, the lowest id winning ties, 1 when
// every schedule fails.
func exhaustiveArgmin(cfgs []Config, prm netmodel.Params, topo netmodel.Topology, m int64) int {
	eng := sim.NewEngine()
	bestID, bestT := 0, 0.0
	for _, c := range cfgs {
		tm, err := SimulateOnce(eng, c, prm, topo, m, 1, false)
		if err != nil {
			continue
		}
		if bestID == 0 || tm < bestT {
			bestID, bestT = c.ID, tm
		}
	}
	if bestID == 0 {
		bestID = 1
	}
	return bestID
}

// withProcs runs f at each GOMAXPROCS setting, restoring the original.
func withProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		par.AtProcs(procs, func() { f(t) })
	}
}

func TestIntelDecisionEqualsExhaustiveArgmin(t *testing.T) {
	// slowNIC is Hydra with a NIC eight times slower. A single node moves
	// every message over its memory bus and none over the NIC, so there
	// its decisions must not change with GNic; on it, a rendezvous size
	// such as 32 KiB (a binomial gather wins) makes a floor that charges
	// an intra-node transfer to the NIC cut the winner.
	slowNIC := machine.Hydra()
	slowNIC.Name += " (slow NIC)"
	slowNIC.RefNet.GNic *= 8
	machines := []machine.Machine{machine.Hydra(), machine.Jupiter(), machine.SuperMUCNG(), slowNIC}
	topos := []netmodel.Topology{{Nodes: 1, PPN: 8}, {Nodes: 2, PPN: 1}, {Nodes: 3, PPN: 4}, {Nodes: 5, PPN: 3}}
	sizes := []int64{16, 8192, 32 << 10, 256 << 10}
	var qs []Query
	for _, topo := range topos {
		for _, m := range sizes {
			qs = append(qs, Query{topo, m})
		}
	}
	if testing.Short() {
		qs = []Query{{topos[2], 8192}, {topos[0], 32 << 10}}
	}
	// One batch per (machine, collective): every topology and size.
	type batch struct {
		mach machine.Machine
		set  *CollectiveSet
		qs   []Query
		want []int
	}
	var grid []batch
	lib := IntelMPI()
	for _, mach := range machines {
		for _, name := range lib.Collectives() {
			set, _ := lib.Collective(name)
			bt := batch{mach: mach, set: set, qs: qs}
			for _, q := range qs {
				bt.want = append(bt.want, exhaustiveArgmin(set.Selectable(), mach.RefNet, q.Topo, q.M))
			}
			grid = append(grid, bt)
		}
	}
	withProcs(t, func(t *testing.T) {
		for _, bt := range grid {
			got := fastestConfigs(bt.set.Selectable(), bt.mach.RefNet, bt.qs)
			for i, q := range bt.qs {
				if got[i] != bt.want[i] {
					t.Errorf("GOMAXPROCS=%d %s %s %+v m=%d: pruned decision %d, exhaustive argmin %d",
						runtime.GOMAXPROCS(0), bt.mach.Name, bt.set.Coll, q.Topo, q.M, got[i], bt.want[i])
				}
			}
		}
	})
}

func TestIntelDecisionTiesGoToLowestID(t *testing.T) {
	// Configurations 2 and 4 are the same schedule (and the fastest of the
	// four at this size), so they tie exactly; 2 must win at any worker count.
	s := &CollectiveSet{Coll: Bcast, Configs: []Config{
		{ID: 1, AlgID: 1, Name: "linear", Gen: coll.BcastLinear},
		{ID: 2, AlgID: 2, Name: "binomial", Gen: coll.BcastBinomial},
		{ID: 3, AlgID: 1, Name: "linear", Gen: coll.BcastLinear},
		{ID: 4, AlgID: 2, Name: "binomial", Gen: coll.BcastBinomial},
	}}
	mach := machine.Hydra()
	topo := netmodel.Topology{Nodes: 8, PPN: 4}
	if ref := exhaustiveArgmin(s.Configs, mach.RefNet, topo, 64); ref != 2 {
		t.Fatalf("reference argmin %d, want the binomial tie broken to 2", ref)
	}
	withProcs(t, func(t *testing.T) {
		for i := 0; i < 20; i++ {
			if got := fastestConfigs(s.Configs, mach.RefNet, []Query{{topo, 64}})[0]; got != 2 {
				t.Fatalf("GOMAXPROCS=%d: tie decided %d, want 2", runtime.GOMAXPROCS(0), got)
			}
		}
	})
}

// deadlocked is a schedule that can never complete.
func deadlocked(b *sim.Builder, topo netmodel.Topology, m int64, prm coll.Params) {
	b.Recv(0, 1, 8)
	b.Recv(1, 0, 8)
}

func TestIntelDecisionSkipsFailingSchedules(t *testing.T) {
	mach := machine.Jupiter()
	topo := netmodel.Topology{Nodes: 2, PPN: 2}
	allFail := &CollectiveSet{Coll: Bcast, Configs: []Config{
		{ID: 1, AlgID: 1, Name: "broken", Gen: deadlocked},
		{ID: 2, AlgID: 2, Name: "broken", Gen: deadlocked},
	}}
	oneWorks := &CollectiveSet{Coll: Bcast, Configs: []Config{
		{ID: 1, AlgID: 1, Name: "broken", Gen: deadlocked},
		{ID: 2, AlgID: 2, Name: "binomial", Gen: coll.BcastBinomial},
		{ID: 3, AlgID: 3, Name: "broken", Gen: deadlocked},
	}}
	withProcs(t, func(t *testing.T) {
		if got := fastestConfigs(allFail.Configs, mach.RefNet, []Query{{topo, 1024}})[0]; got != 1 {
			t.Errorf("every schedule fails: decided %d, want the fallback 1", got)
		}
		if got := fastestConfigs(oneWorks.Configs, mach.RefNet, []Query{{topo, 1024}})[0]; got != 2 {
			t.Errorf("one working schedule: decided %d, want 2", got)
		}
	})
}

func TestDecideIsSingleFlight(t *testing.T) {
	const n = 16
	var calls, arrived atomic.Int32
	all := make(chan struct{}) // closed once every caller has arrived
	s := &CollectiveSet{Coll: Bcast, decide: func(_ machine.Machine, qs []Query) []int {
		calls.Add(1)
		<-all // stay in flight until every caller has arrived
		ids := make([]int, len(qs))
		for i := range ids {
			ids[i] = 7
		}
		return ids
	}}
	mach := machine.Hydra()
	topo := netmodel.Topology{Nodes: 4, PPN: 2}
	// n workers for n callers: no caller returns before all have arrived,
	// so each runs on its own goroutine.
	err := par.Run(n, n, nil,
		func(_, _ int) (int, error) {
			if arrived.Add(1) == n {
				close(all)
			}
			return s.Decide(mach, topo, 4096), nil
		},
		func(i, id int) error {
			if id != 7 {
				t.Errorf("caller %d got %d, want 7", i, id)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if c := calls.Load(); c != 1 {
		t.Errorf("%d concurrent callers ran the decision %d times, want once", n, c)
	}
	// A different key is a different decision.
	if got := s.Decide(mach, topo, 8192); got != 7 || calls.Load() != 2 {
		t.Errorf("second key: id %d after %d calls, want 7 after 2", got, calls.Load())
	}
}

func TestDecideKeysOnPlacement(t *testing.T) {
	// On Hydra, Intel bcast 4x4 at 1 MiB has a different exhaustive argmin
	// under block and under cyclic rank placement; a set that has decided
	// one placement must still answer the other with its own argmin.
	mach := machine.Hydra()
	block := netmodel.Topology{Nodes: 4, PPN: 4}
	cyclic := netmodel.Topology{Nodes: 4, PPN: 4, Cyclic: true}
	const m = 1 << 20
	set, _ := IntelMPI().Collective(Bcast)
	want := map[bool]int{
		false: exhaustiveArgmin(set.Selectable(), mach.RefNet, block, m),
		true:  exhaustiveArgmin(set.Selectable(), mach.RefNet, cyclic, m),
	}
	if want[false] == want[true] {
		t.Fatalf("block and cyclic share argmin %d; the instance no longer separates them", want[false])
	}
	for _, order := range [][]netmodel.Topology{{block, cyclic}, {cyclic, block}} {
		set, _ := IntelMPI().Collective(Bcast)
		for _, topo := range order {
			if got := set.Decide(mach, topo, m); got != want[topo.Cyclic] {
				t.Errorf("order %v: %+v decided %d, want its exhaustive argmin %d", order, topo, got, want[topo.Cyclic])
			}
		}
	}
}

func TestDecideAllEqualsExhaustiveArgmin(t *testing.T) {
	// Mixed topologies and placements, a duplicate query, and keys that an
	// earlier Decide already memoized: every answer is the query's own
	// exhaustive argmin, in query order.
	mach := machine.Hydra()
	block := netmodel.Topology{Nodes: 4, PPN: 4}
	cyclic := netmodel.Topology{Nodes: 4, PPN: 4, Cyclic: true}
	qs := []Query{
		{block, 1 << 20}, {netmodel.Topology{Nodes: 3, PPN: 1}, 100003}, {cyclic, 1 << 20},
		{netmodel.Topology{Nodes: 2, PPN: 3}, 8}, {block, 1 << 20}, {netmodel.Topology{Nodes: 1, PPN: 1}, 64},
		{netmodel.Topology{Nodes: 5, PPN: 2}, 8192},
	}
	ref, _ := IntelMPI().Collective(Bcast)
	want := make([]int, len(qs))
	for i, q := range qs {
		want[i] = exhaustiveArgmin(ref.Selectable(), mach.RefNet, q.Topo, q.M)
	}
	withProcs(t, func(t *testing.T) {
		set, _ := IntelMPI().Collective(Bcast)
		for _, i := range []int{2, 5} {
			if got := set.Decide(mach, qs[i].Topo, qs[i].M); got != want[i] {
				t.Fatalf("Decide %+v = %d, want %d", qs[i], got, want[i])
			}
		}
		got := set.DecideAll(mach, qs)
		for i, q := range qs {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d query %d %+v: decided %d, exhaustive argmin %d",
					runtime.GOMAXPROCS(0), i, q, got[i], want[i])
			}
		}
	})
}

func TestDecideAllIsSingleFlightPerKey(t *testing.T) {
	// Concurrent batches over overlapping key sets: each key is decided by
	// exactly one batch, and every caller gets every key's answer.
	const callers = 8
	var mu sync.Mutex
	decided := map[int64]int{}
	s := &CollectiveSet{Coll: Bcast, decide: func(_ machine.Machine, qs []Query) []int {
		ids := make([]int, len(qs))
		mu.Lock()
		defer mu.Unlock()
		for i, q := range qs {
			decided[q.M]++
			ids[i] = int(q.M)
		}
		return ids
	}}
	mach := machine.Hydra()
	topo := netmodel.Topology{Nodes: 2, PPN: 2}
	err := par.Run(callers, callers, nil,
		func(_, c int) ([]int, error) {
			var qs []Query
			for m := int64(c); m < int64(c)+6; m++ {
				qs = append(qs, Query{topo, m%10 + 1}, Query{topo, 1})
			}
			got := s.DecideAll(mach, qs)
			for i, q := range qs {
				if got[i] != int(q.M) {
					return nil, fmt.Errorf("caller %d query %+v: got %d", c, q, got[i])
				}
			}
			return got, nil
		},
		func(int, []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(decided) != 10 {
		t.Errorf("%d keys decided, want 10", len(decided))
	}
	for m, n := range decided {
		if n != 1 {
			t.Errorf("key m=%d decided %d times, want once", m, n)
		}
	}
}
