package sim

// Stats is the per-run instrumentation block attached to Result when stats
// collection is enabled via Engine.CollectStats. All counters are totals
// over one Run.
type Stats struct {
	// Sends, Recvs and Computes partition the executed operations by kind
	// (a blocked op that resumes later is counted once). A completed run
	// executes every op of its program once, so these counters, the
	// protocol split and MessagesMatched are counted from the program.
	Sends    int
	Recvs    int
	Computes int
	// EagerSends and RendezvousSends partition Sends by protocol.
	EagerSends      int
	RendezvousSends int
	// MessagesMatched counts completed (send, recv) matches; at the end of
	// a run it equals the number of delivered messages.
	MessagesMatched int
	// BlockedSends and BlockedRecvs count parks: operations whose partner
	// had not yet reached them when the engine executed them. A rank runs
	// its computes and eager-size receives ahead of the other ranks, so
	// it often reaches a receive before the matching send has run even
	// when the message arrives before the receive is posted in simulated
	// time; such a receive parks and counts here. The counts therefore
	// depend on the engine's execution order, not only on the schedule's
	// slack, and moved when that order changed.
	BlockedSends int
	BlockedRecvs int
	// PeakHeapDepth is the maximum number of ready ranks queued behind the
	// running one (ready ranks minus one), sampled after each executed
	// operation. The name dates from the heap the ready queue replaced.
	PeakHeapDepth int
}

// countOps sets the counters that follow from prog alone, in one pass over
// its stored ops: each op counts once per iteration of its loop, a send's
// protocol is model's, and every receive is matched.
func (s *Stats) countOps(prog *Program, model CostModel) {
	for _, rp := range prog.ranks {
		for _, l := range rp.loops {
			n := int(l.n)
			for _, op := range rp.ops[l.start : l.start+l.len] {
				switch {
				case op.Kind == OpCompute:
					s.Computes += n
				case op.Kind == OpRecv:
					s.Recvs += n
				case model.Eager(op.Bytes):
					s.Sends += n
					s.EagerSends += n
				default:
					s.Sends += n
					s.RendezvousSends += n
				}
			}
		}
	}
	s.MessagesMatched = s.Recvs
}

// Tracer receives per-rank timeline spans during execution; used by the
// Chrome trace exporter. Spans are reported in completion order, with
// simulated-seconds endpoints. A nil Tracer disables the callbacks.
type Tracer interface {
	// OpSpan reports that rank occupied [start, end] executing an op of the
	// given kind. peer is the partner rank (-1 for compute); rendezvous
	// reports the protocol of a send.
	OpSpan(rank int32, kind OpKind, peer int32, bytes uint32, start, end float64, rendezvous bool)
}

// ResourceTracer receives per-node resource occupancy spans (NIC injection,
// memory bus) from the cost model; used by the Chrome trace exporter to
// render NIC-queueing alongside the rank timelines.
type ResourceTracer interface {
	// ResourceSpan reports that the named resource ("nic", "mem") of node
	// was busy over [start, end].
	ResourceSpan(resource string, node int32, start, end float64)
}

// String names the op kind for traces and error messages.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpSendNB:
		return "isend"
	case OpRecv:
		return "recv"
	case OpCompute:
		return "compute"
	}
	return "op?"
}
