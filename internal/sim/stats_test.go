package sim

import "testing"

// spanRec captures Tracer callbacks for assertions.
type spanRec struct {
	rank, peer int32
	kind       OpKind
	start, end float64
	rendezvous bool
}

type recordingTracer struct{ spans []spanRec }

func (r *recordingTracer) OpSpan(rank int32, kind OpKind, peer int32, bytes uint32, start, end float64, rendezvous bool) {
	r.spans = append(r.spans, spanRec{rank: rank, peer: peer, kind: kind, start: start, end: end, rendezvous: rendezvous})
}

func TestStatsDisabledByDefault(t *testing.T) {
	b := NewBuilder(2, false)
	b.Send(0, 1, 10)
	b.Recv(1, 0, 10)
	res, err := NewEngine().Run(b.Build(), newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Errorf("Stats must be nil unless enabled, got %+v", res.Stats)
	}
}

func TestStatsCountsMixedProtocols(t *testing.T) {
	// 2 eager sends (10 B), 1 rendezvous send (2 MiB above the 1 MiB
	// threshold), 1 compute; every message is received.
	b := NewBuilder(2, false)
	b.Send(0, 1, 10)
	b.Recv(1, 0, 10)
	b.Compute(1, 100)
	b.Send(1, 0, 10)
	b.Recv(0, 1, 10)
	b.Send(0, 1, 2<<20)
	b.Recv(1, 0, 2<<20)
	eng := NewEngine()
	eng.CollectStats(true)
	res, err := eng.Run(b.Build(), newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s == nil {
		t.Fatal("stats enabled but Result.Stats is nil")
	}
	if s.Sends != 3 || s.Recvs != 3 || s.Computes != 1 {
		t.Errorf("op counts wrong: %+v", s)
	}
	if s.EagerSends != 2 || s.RendezvousSends != 1 {
		t.Errorf("protocol split wrong: %+v", s)
	}
	if s.MessagesMatched != 3 {
		t.Errorf("matched = %d, want 3", s.MessagesMatched)
	}
	if s.BlockedSends+s.BlockedRecvs == 0 {
		t.Errorf("expected some blocking in a ping-pong: %+v", s)
	}
	if s.PeakHeapDepth < 1 {
		t.Errorf("peak ready-queue depth = %d", s.PeakHeapDepth)
	}
	// Stats must reset between runs, not accumulate.
	res2, err := eng.Run(b.Build(), newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res2.Stats != *s {
		t.Errorf("second run stats differ: %+v vs %+v", res2.Stats, s)
	}
}

func TestTracerSpansCoverAllOps(t *testing.T) {
	// One eager exchange, one parked-receiver eager send, one rendezvous
	// with a parked sender: all three delivery paths must emit spans.
	b := NewBuilder(2, false)
	b.Recv(1, 0, 64)    // parks: eager send wakes it
	b.Send(0, 1, 64)    //
	b.Send(1, 0, 2<<20) // rendezvous: parks until 0 posts the recv
	b.Compute(0, 1000)  //
	b.Recv(0, 1, 2<<20) // wakes the parked sender
	tr := &recordingTracer{}
	eng := NewEngine()
	eng.SetTracer(tr)
	res, err := eng.Run(b.Build(), newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sends, recvs, computes int
	for _, sp := range tr.spans {
		if sp.end < sp.start {
			t.Errorf("span ends before it starts: %+v", sp)
		}
		switch sp.kind {
		case OpSend, OpSendNB:
			sends++
		case OpRecv:
			recvs++
		case OpCompute:
			computes++
		}
	}
	if sends != 2 || recvs != 2 || computes != 1 {
		t.Errorf("span counts: %d sends, %d recvs, %d computes (spans %+v)", sends, recvs, computes, tr.spans)
	}
	// The rendezvous sender's span must be held open until the receiver
	// posted, i.e. end past the receiver's compute.
	for _, sp := range tr.spans {
		if sp.kind == OpSend && sp.rendezvous && sp.end < 0.1 {
			t.Errorf("rendezvous send span too short: %+v", sp)
		}
	}
	if res.Stats != nil {
		t.Error("tracer alone must not enable stats")
	}
	// Tracing must not change timing.
	res2, err := NewEngine().Run(b.Build(), newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time != res2.Time {
		t.Errorf("tracing changed the makespan: %v vs %v", res.Time, res2.Time)
	}
}

func TestStatsMatchRingDeliveries(t *testing.T) {
	p, steps := 16, 8
	prog := buildRing(p, steps)
	eng := NewEngine()
	eng.CollectStats(true)
	res, err := eng.Run(prog, newTestModel(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	wantMsgs := p * steps
	if s.MessagesMatched != wantMsgs || s.Sends != wantMsgs || s.Recvs != wantMsgs {
		t.Errorf("ring accounting: %+v, want %d messages", s, wantMsgs)
	}
	if s.PeakHeapDepth > p {
		t.Errorf("peak ready-queue depth %d exceeds rank count %d", s.PeakHeapDepth, p)
	}
}
