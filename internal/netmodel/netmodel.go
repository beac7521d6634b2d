// Package netmodel provides the network/CPU cost model that drives the
// discrete-event simulator. It is a LogGP-flavoured model with separate
// intra-node and inter-node parameters, per-node NIC injection/ejection
// serialization (which makes running time depend on processes-per-node, not
// just on the total process count), an eager/rendezvous protocol switch, and
// deterministic multiplicative noise.
package netmodel

import (
	"mpicollpred/internal/fault"
	"mpicollpred/internal/sim"
)

// Params collects all model constants for one machine. Times are in seconds,
// per-byte gaps in seconds/byte.
type Params struct {
	// Inter-node path.
	LInter float64 // wire+switch latency per message
	GInter float64 // per-byte cost of a single stream (1/stream bandwidth)
	GNic   float64 // per-byte NIC serialization (1/node injection bandwidth)

	// Intra-node path (shared memory).
	LIntra float64 // latency of an on-node message
	GIntra float64 // per-byte cost of a single on-node stream
	GMem   float64 // per-byte node memory-bus serialization

	// CPU costs.
	OSend float64 // per-message sender overhead
	ORecv float64 // per-message receiver overhead
	OByte float64 // per-byte sender copy cost (eager protocol buffering)
	Gamma float64 // per-byte reduction/compute cost

	// Protocol.
	Eager       uint32  // messages strictly below this size are eager
	RendezvousL float64 // extra handshake latency (RTS/CTS round trip)

	// Noise: per-message multiplicative lognormal factor exp(Sigma*N(0,1)).
	Sigma float64
}

// Perturb returns a copy of p with every latency/bandwidth parameter scaled
// by the given factors (used to derive the "reference system" on which the
// simulated Intel-style decision table was tuned).
func (p Params) Perturb(latFactor, bwFactor float64) Params {
	q := p
	q.LInter *= latFactor
	q.LIntra *= latFactor
	q.RendezvousL *= latFactor
	q.GInter *= bwFactor
	q.GNic *= bwFactor
	q.GIntra *= bwFactor
	q.GMem *= bwFactor
	return q
}

// Topology describes the process layout: nodes × processes-per-node. The
// default is SLURM's block distribution (ranks 0..ppn-1 on node 0, etc.);
// Cyclic selects round-robin placement (rank r on node r mod nodes), the
// other common SLURM distribution. Placement changes which messages stay
// on-node, and therefore which collective algorithm wins — one of the
// factors the paper lists as shaping the selection problem.
type Topology struct {
	Nodes  int
	PPN    int
	Cyclic bool
}

// P returns the total number of processes.
func (t Topology) P() int { return t.Nodes * t.PPN }

// NodeOf returns the node hosting the given rank.
func (t Topology) NodeOf(rank int32) int32 {
	if t.Cyclic {
		return rank % int32(t.Nodes)
	}
	return rank / int32(t.PPN)
}

// SameNode reports whether two ranks share a node.
func (t Topology) SameNode(a, b int32) bool { return t.NodeOf(a) == t.NodeOf(b) }

// Stats is the per-run accounting block of a Model: transfer counts and the
// queueing delay messages spent waiting for a busy NIC or memory bus — the
// contention component of a schedule's running time, invisible in the
// makespan alone.
type Stats struct {
	Messages      int   // transfers through the model
	IntraNode     int   // transfers that stayed on-node
	InterNode     int   // transfers that crossed the fabric
	Bytes         int64 // total payload bytes transferred
	QueueDelay    float64
	MaxQueueDelay float64
}

// Model implements sim.CostModel. A Model is stateful per run: per-node NIC
// and memory-bus availability accumulate as messages are simulated. Create a
// fresh Model (or call Reset) for every independent run.
type Model struct {
	prm  Params
	topo Topology
	rng  *sim.RNG // nil for a noise-free run

	egress  []float64 // per node: NIC injection available-from time
	ingress []float64 // per node: NIC ejection available-from time
	mem     []float64 // per node: memory-bus available-from time

	// Instrumentation, both off by default.
	stats  *Stats
	tracer sim.ResourceTracer

	// Fault injection, off by default: a nil injector costs one nil check
	// per transfer and leaves timings bit-identical to a fault-free model.
	faults *fault.Injector
}

// New returns a run-ready Model. seed keys the deterministic noise; noisy
// false yields the expected-cost (noise-free) model used e.g. by the
// simulated vendor decision logic.
func New(prm Params, topo Topology, seed uint64, noisy bool) *Model {
	m := &Model{prm: prm, topo: topo}
	if noisy {
		m.rng = sim.NewRNG(seed)
	}
	m.egress = make([]float64, topo.Nodes)
	m.ingress = make([]float64, topo.Nodes)
	m.mem = make([]float64, topo.Nodes)
	return m
}

// Reset clears resource state and reseeds the noise stream, making the Model
// ready for another independent run on the same topology. Collected stats
// are zeroed but collection stays enabled.
func (m *Model) Reset(seed uint64) {
	for i := range m.egress {
		m.egress[i] = 0
		m.ingress[i] = 0
		m.mem[i] = 0
	}
	if m.rng != nil {
		m.rng = sim.NewRNG(seed)
	}
	if m.stats != nil {
		*m.stats = Stats{}
	}
}

// CollectStats enables (or disables) per-run transfer accounting.
func (m *Model) CollectStats(on bool) {
	if on {
		m.stats = &Stats{}
	} else {
		m.stats = nil
	}
}

// Stats returns the accounting since the last Reset (zero when collection
// is disabled).
func (m *Model) Stats() Stats {
	if m.stats == nil {
		return Stats{}
	}
	return *m.stats
}

// SetTracer installs a resource-occupancy tracer (nil disables). The tracer
// receives one span per NIC/memory-bus busy period.
func (m *Model) SetTracer(t sim.ResourceTracer) { m.tracer = t }

// SetFaults installs a fault injector (nil disables, the default). Straggler
// faults multiply the cost of every message entering or leaving the target
// node; degraded-NIC faults multiply the NIC serialization cost (flapping
// with their configured period); noise bursts raise the per-message noise
// sigma inside their simulated-time window. The injector survives Reset —
// faults describe the machine, not one run.
func (m *Model) SetFaults(inj *fault.Injector) { m.faults = inj }

// Params returns the model constants.
func (m *Model) Params() Params { return m.prm }

// Topo returns the process topology.
func (m *Model) Topo() Topology { return m.topo }

// noiseAt draws the multiplicative noise factor for a transfer starting at
// simulated time t. Noise-burst faults raise the sigma inside their window;
// with no injector installed this is exactly the base-sigma draw, consuming
// the same RNG stream as a fault-free model.
func (m *Model) noiseAt(t float64) float64 {
	if m.rng == nil {
		return 1
	}
	sigma := m.prm.Sigma
	if m.faults != nil {
		sigma += m.faults.SigmaBoost(t)
	}
	return m.rng.LogNormal(sigma)
}

// Eager implements sim.CostModel.
func (m *Model) Eager(bytes uint32) bool { return bytes < m.prm.Eager }

// transfer computes the network portion of a message: given the time the
// data is ready to enter the fabric, it returns (last byte left the source,
// last byte arrived at the destination), accounting for per-node resource
// serialization.
func (m *Model) transfer(src, dst int32, bytes uint32, ready float64) (egressDone, arrival float64) {
	b := float64(bytes)
	if m.topo.SameNode(src, dst) {
		node := m.topo.NodeOf(src)
		start := maxf(ready, m.mem[node])
		busy := b * m.prm.GMem
		lat := m.prm.LIntra + b*m.prm.GIntra
		if m.faults != nil {
			nf := m.faults.NodeFactor(node)
			busy *= nf
			lat *= nf
		}
		f := m.noiseAt(start)
		m.mem[node] = start + busy
		egressDone = start + busy
		arrival = start + lat*f
		if arrival < egressDone {
			arrival = egressDone
		}
		if m.stats != nil {
			m.noteTransfer(bytes, start-ready, true)
		}
		if m.tracer != nil && busy > 0 {
			m.tracer.ResourceSpan("mem", node, start, start+busy)
		}
		return egressDone, arrival
	}
	sn, dn := m.topo.NodeOf(src), m.topo.NodeOf(dst)
	start := maxf(ready, maxf(m.egress[sn], m.ingress[dn]))
	busy := b * m.prm.GNic
	lat := m.prm.LInter + b*m.prm.GInter
	if m.faults != nil {
		nf := m.faults.NodeFactor(sn) * m.faults.NodeFactor(dn)
		busy *= nf * m.faults.NICFactor(sn, start) * m.faults.NICFactor(dn, start)
		lat *= nf
	}
	f := m.noiseAt(start)
	m.egress[sn] = start + busy
	m.ingress[dn] = start + busy
	egressDone = start + busy
	arrival = start + lat*f
	if arrival < egressDone {
		arrival = egressDone
	}
	if m.stats != nil {
		m.noteTransfer(bytes, start-ready, false)
	}
	if m.tracer != nil && busy > 0 {
		m.tracer.ResourceSpan("nic", sn, start, start+busy)
	}
	return egressDone, arrival
}

// noteTransfer records one transfer in the stats block. wait is the time the
// message queued for a busy NIC or memory bus before its bytes could move.
func (m *Model) noteTransfer(bytes uint32, wait float64, intra bool) {
	s := m.stats
	s.Messages++
	s.Bytes += int64(bytes)
	if intra {
		s.IntraNode++
	} else {
		s.InterNode++
	}
	if wait > 0 {
		s.QueueDelay += wait
		if wait > s.MaxQueueDelay {
			s.MaxQueueDelay = wait
		}
	}
}

// SendEager implements sim.CostModel. The sender copies the message into
// protocol buffers (OSend + per-byte copy) and proceeds; the network delivers
// it independently.
func (m *Model) SendEager(src, dst int32, bytes uint32, t float64) (senderDone, arrival float64) {
	ready := t + m.prm.OSend + float64(bytes)*m.prm.OByte
	_, arrival = m.transfer(src, dst, bytes, ready)
	return ready, arrival
}

// SendRendezvous implements sim.CostModel. The transfer starts after both
// sides have posted plus a handshake; the sender is busy until its last byte
// has left.
func (m *Model) SendRendezvous(src, dst int32, bytes uint32, ts, tr float64) (senderDone, arrival float64) {
	ready := maxf(ts+m.prm.OSend, tr) + m.prm.RendezvousL
	egressDone, arr := m.transfer(src, dst, bytes, ready)
	return egressDone, arr
}

// RecvOverhead implements sim.CostModel.
func (m *Model) RecvOverhead(bytes uint32) float64 { return m.prm.ORecv }

// PostOverhead implements sim.CostModel: the cost of posting a non-blocking
// send is the per-message sender overhead.
func (m *Model) PostOverhead(bytes uint32) float64 { return m.prm.OSend }

// Compute implements sim.CostModel.
func (m *Model) Compute(bytes uint32) float64 { return float64(bytes) * m.prm.Gamma }

// MinCost implements sim.CostModel. Each floor follows from a branch of
// the engine's step and of the send methods above. Noise scales only the
// latency term and fault factors are at least 1, so no draw or fault
// shortens any of these terms; and a transfer never ends before it starts.
//   - Compute adds Gamma·b, exactly.
//   - A receive completes at arrival + ORecv, and arrival is never before
//     the receiver's clock or post time: an eager arrival is raised to it,
//     and a rendezvous transfer is not ready before the receiver posted.
//   - An eager send resumes at t + OSend + b·OByte: SendEager's senderDone,
//     with no noise or fault term.
//   - A non-blocking rendezvous send pays its PostOverhead, OSend.
//   - A blocking rendezvous send resumes when its last byte has left, which
//     is no earlier than the transfer's ready time, and so at least
//     OSend + RendezvousL after the send was posted.
func (m *Model) MinCost(kind sim.OpKind, bytes uint32) float64 {
	switch {
	case kind == sim.OpCompute:
		return m.Compute(bytes)
	case kind == sim.OpRecv:
		return m.prm.ORecv
	case m.Eager(bytes):
		return m.prm.OSend + float64(bytes)*m.prm.OByte
	case kind == sim.OpSendNB:
		return m.prm.OSend
	default: // blocking rendezvous send
		return m.prm.OSend + m.prm.RendezvousL
	}
}

var _ sim.CostModel = (*Model)(nil)

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
