package sim_test

import (
	"testing"

	"mpicollpred/internal/mpilib"
	"mpicollpred/internal/sim"
)

// storedOps pins, per (library, collective), the ops the builder stores
// (verify off) for every configuration on the golden topologies and
// storedOpSizes. TestOpStreamsPinned hashes only the
// expanded streams, so a generator that stops stating a loop through
// Repeat, and has its body stored once per iteration, passes it but fails
// here. A generator that states a loop it did not before lowers its count;
// re-pin the count then.
var storedOps = map[string]int{
	"Intel MPI/allgather": 5616,
	"Intel MPI/allreduce": 91968,
	"Intel MPI/alltoall":  16762,
	"Intel MPI/bcast":     6192,
	"Intel MPI/gather":    432,
	"Intel MPI/reduce":    1944,
	"Intel MPI/scatter":   432,
	"Open MPI/allgather":  5616,
	"Open MPI/allreduce":  88985,
	"Open MPI/alltoall":   15722,
	"Open MPI/bcast":      14314,
	"Open MPI/gather":     432,
	"Open MPI/reduce":     3294,
	"Open MPI/scatter":    432,
}

// storedOpSizes are TestOpStreamsPinned's sizes: empty, one byte, a size
// that is no multiple of any segment size in either portfolio, and 4 MiB.
var storedOpSizes = []int64{0, 1, 100003, 4 << 20}

func TestStoredOpsPinned(t *testing.T) {
	got := map[string]int{}
	for _, lib := range mpilib.Libraries() {
		for _, collName := range lib.Collectives() {
			set, err := lib.Collective(collName)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, c := range set.Configs {
				for _, topo := range goldenTopos {
					for _, m := range storedOpSizes {
						n += sim.StoredOps(mpilib.BuildProgram(c, topo, m, false))
					}
				}
			}
			got[lib.Name+"/"+collName] = n
		}
	}
	for key, n := range got {
		switch want, ok := storedOps[key]; {
		case !ok:
			t.Errorf("%s: %d stored ops, none pinned", key, n)
		case n > want:
			t.Errorf("%s: %d stored ops, above the pinned %d: a generator no longer states a loop", key, n, want)
		case n < want:
			t.Errorf("%s: %d stored ops, below the pinned %d: re-pin the count", key, n, want)
		}
	}
	if len(got) != len(storedOps) {
		t.Errorf("%d groups counted, %d pinned", len(got), len(storedOps))
	}
}
