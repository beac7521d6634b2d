// Package mpilib models the tunable collective frameworks of two MPI
// libraries: an Open MPI-like profile ("Open MPI 4.0.2") and an Intel
// MPI-like profile ("Intel MPI 2019").
//
// A library exposes, per collective operation, a set of algorithm
// configurations u(j,l): algorithm id j combined with one allocation l of
// its parameters (segment size, chain count, radix, window). This mirrors
// how the paper merges the algorithm selection and the algorithm
// configuration problem. Configuration id 0 is reserved for the library's
// hard-coded default decision logic, exactly as in Open MPI.
//
// The two default logics reproduce the paper's experimental contrast:
//
//   - The Open MPI profile uses fixed, machine-independent threshold rules
//     (à la coll_tuned_decision_fixed.c), which were tuned on some machine
//     long ago — so they leave significant performance on the table.
//   - The Intel profile decides by consulting a tuning table computed on a
//     "reference system" almost identical to the target machine (the
//     simulated stand-in for mpitune factory tables), which makes its
//     defaults near-optimal, as the paper observes. Each table entry is an
//     exhaustive search over the portfolio, pruned by a makespan bound:
//     configurations run in parallel, and a run stops as soon as a lower
//     bound on its makespan (a rank's clock plus the cost model's floors
//     for the ops it has left) shows it slower than one already completed,
//     which never changes the answer.
package mpilib

import (
	"fmt"
	"sort"
	"sync"

	"mpicollpred/internal/coll"
	"mpicollpred/internal/machine"
	"mpicollpred/internal/netmodel"
	"mpicollpred/internal/sim"
)

// Collective operation names. The paper's datasets cover the first three
// (the most frequently used blocking collectives per Chunduri et al.);
// Reduce, Allgather, Gather and Scatter complete the library portfolios,
// since the selection framework is generic over collectives.
const (
	Bcast     = "bcast"
	Allreduce = "allreduce"
	Alltoall  = "alltoall"
	Reduce    = "reduce"
	Allgather = "allgather"
	Gather    = "gather"
	Scatter   = "scatter"
)

// DefaultID is the configuration id of the library's built-in decision
// logic ("algorithm 0" in Open MPI terms).
const DefaultID = 0

// Config is one algorithm configuration u(j,l).
type Config struct {
	ID     int // unique within the collective's set; >= 1
	AlgID  int // the library's algorithm number j
	Name   string
	Params coll.Params
	Gen    coll.Generator
	// Excluded marks configurations that are benchmarked but must not be
	// selected (the paper found Open MPI 4.0.2's broadcast algorithm 8
	// buggy and dropped it from the search space).
	Excluded bool
}

// Label renders "name seg=.. fanout=.." for tables and figures.
func (c Config) Label() string { return c.Name + c.Params.String() }

// CollectiveSet is a library's algorithm portfolio for one collective.
type CollectiveSet struct {
	Coll    string
	Configs []Config // ids 1..len; index i holds ID i+1

	// decide answers a batch of queries, one id per query.
	decide func(mach machine.Machine, qs []Query) []int
	mu     sync.Mutex
	// memo holds one decision per instance, computed once by whichever
	// caller first asks for its key; concurrent callers wait for that answer.
	memo map[decideKey]func() int
}

// Query is one instance of a collective to decide: the topology with its
// rank placement, and the message size.
type Query struct {
	Topo netmodel.Topology
	M    int64
}

// decideKey identifies one default decision.
type decideKey struct {
	mach string
	topo netmodel.Topology
	m    int64
}

// add appends configuration u(algID, prm) under the next dense id.
func (s *CollectiveSet) add(algID int, name string, gen coll.Generator, prm coll.Params) {
	s.Configs = append(s.Configs, Config{ID: len(s.Configs) + 1, AlgID: algID, Name: name, Params: prm, Gen: gen})
}

// NumAlgs returns the number of distinct algorithm ids in the portfolio.
func (s *CollectiveSet) NumAlgs() int {
	algs := map[int]bool{}
	for _, c := range s.Configs {
		algs[c.AlgID] = true
	}
	return len(algs)
}

// Config returns the configuration with the given id (>= 1).
func (s *CollectiveSet) Config(id int) (Config, error) {
	if id < 1 || id > len(s.Configs) {
		return Config{}, fmt.Errorf("mpilib: %s has no configuration %d", s.Coll, id)
	}
	return s.Configs[id-1], nil
}

// Selectable returns the configurations eligible for tuning (non-excluded).
func (s *CollectiveSet) Selectable() []Config {
	out := make([]Config, 0, len(s.Configs))
	for _, c := range s.Configs {
		if !c.Excluded {
			out = append(out, c)
		}
	}
	return out
}

// Decide runs the library's default decision logic for an instance and
// returns the chosen configuration id. It is DecideAll for one query.
func (s *CollectiveSet) Decide(mach machine.Machine, topo netmodel.Topology, m int64) int {
	return s.DecideAll(mach, []Query{{topo, m}})[0]
}

// DecideAll returns the default decision for every query, in query order.
// Results are memoized and computed once per instance — machine, topology
// with its rank placement, message size — however many callers ask at the
// same time (the Intel profile's decision involves consulting its tuning
// table, which is expensive to build). The queries not yet memoized are
// decided together in one call of the decision logic, so the Intel
// profile searches all of their portfolios in one parallel pass.
func (s *CollectiveSet) DecideAll(mach machine.Machine, qs []Query) []int {
	ds := make([]func() int, len(qs))
	var missing []Query
	var batch func() []int
	s.mu.Lock()
	if s.memo == nil {
		s.memo = make(map[decideKey]func() int)
	}
	for i, q := range qs {
		key := decideKey{mach.Name, q.Topo, q.M}
		d, ok := s.memo[key]
		if !ok {
			// A placeholder: its first caller waits for the whole batch.
			j := len(missing)
			missing = append(missing, q)
			d = sync.OnceValue(func() int { return batch()[j] })
			s.memo[key] = d
		}
		ds[i] = d
	}
	if len(missing) > 0 {
		batch = sync.OnceValue(func() []int { return s.decide(mach, missing) })
	}
	s.mu.Unlock()
	if batch != nil {
		batch() // before waiting on any other caller's batch
	}
	ids := make([]int, len(qs))
	for i, d := range ds {
		ids[i] = d()
	}
	return ids
}

// Library is a simulated MPI library profile.
type Library struct {
	Name        string
	Version     string
	collectives map[string]*CollectiveSet
}

// Collective returns the algorithm set for the named collective.
func (l *Library) Collective(coll string) (*CollectiveSet, error) {
	s, ok := l.collectives[coll]
	if !ok {
		return nil, fmt.Errorf("mpilib: %s does not provide %q", l.Name, coll)
	}
	return s, nil
}

// Collectives lists the provided collective names, sorted.
func (l *Library) Collectives() []string {
	out := make([]string, 0, len(l.collectives))
	for name := range l.collectives {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// findConfig locates a configuration by algorithm id and parameters; panics
// if the decision logic references a configuration missing from the grid —
// a programming error caught by the package tests.
func (s *CollectiveSet) findConfig(algID int, prm coll.Params) int {
	for _, c := range s.Configs {
		if c.AlgID == algID && c.Params == prm {
			return c.ID
		}
	}
	//mpicollvet:ignore panicguard decision tables are exhaustively validated by the package tests; a miss is a programmer error, not a runtime condition
	panic(fmt.Sprintf("mpilib: %s decision references missing config alg=%d%s", s.Coll, algID, prm.String()))
}

// BuildProgram emits the schedule of configuration c for an instance.
func BuildProgram(c Config, topo netmodel.Topology, m int64, verify bool) *sim.Program {
	b := sim.NewBuilder(topo.P(), verify)
	c.Gen(b, topo, m, c.Params)
	return b.Build()
}

// SimulateOnce runs configuration c once on the given network parameters and
// returns the makespan.
func SimulateOnce(eng *sim.Engine, c Config, prm netmodel.Params, topo netmodel.Topology, m int64, seed uint64, noisy bool) (float64, error) {
	prog := BuildProgram(c, topo, m, false)
	model := netmodel.New(prm, topo, seed, noisy)
	res, err := eng.Run(prog, model, nil, nil)
	if err != nil {
		return 0, fmt.Errorf("%s (alg %d): %w", c.Label(), c.AlgID, err)
	}
	return res.Time, nil
}
