package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Request-scoped tracing for the serving path. A SpanRing holds the last N
// completed request traces; each trace is a tree of spans (parse → resolve →
// cache → argmin/fallback) started from one root per request. Tracing is
// off-by-default and nil-safe end to end: every method on a nil *SpanRing or
// nil *Span is a no-op that allocates nothing, so the hot path pays zero
// cost when the ring is disabled (span_bench_test.go proves it).
//
// Completed traces are served at /debug/traces as JSON and are exportable in
// the same Chrome trace-event format as the simulator timelines (trace.go),
// so one viewer covers both worlds.

// Tag is one key/value annotation on a span.
type Tag struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanRecord is one completed span inside a RequestTrace. Parent is the
// index of the parent span within the trace's Spans slice (-1 for the root);
// times are microsecond offsets from the trace start.
type SpanRecord struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Tags    []Tag  `json:"tags,omitempty"`
}

// RequestTrace is one request's completed span tree.
type RequestTrace struct {
	RequestID   string       `json:"request_id"`
	Endpoint    string       `json:"endpoint"`
	StartUnixUs int64        `json:"start_unix_us"`
	DurationUs  int64        `json:"duration_us"`
	Spans       []SpanRecord `json:"spans"`
}

// SpanRing buffers the most recent completed request traces. It is safe for
// concurrent use: requests publish finished traces while /debug/traces
// readers snapshot them.
type SpanRing struct {
	mu     sync.Mutex
	traces []RequestTrace
	next   int
	stored int
	total  uint64
	clock  func() time.Time
}

// NewSpanRing returns a ring keeping the last capacity traces. A capacity
// <= 0 returns nil — the disabled ring every method treats as "tracing off".
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		return nil
	}
	return &SpanRing{traces: make([]RequestTrace, capacity), clock: time.Now}
}

func (r *SpanRing) now() time.Time {
	r.mu.Lock()
	fn := r.clock
	r.mu.Unlock()
	return fn()
}

// activeTrace is a trace under construction; the root span's End publishes
// it into the ring.
type activeTrace struct {
	ring  *SpanRing
	mu    sync.Mutex
	start time.Time
	rt    RequestTrace
}

// Span is a handle on one span of an active trace. The zero of usefulness —
// a nil *Span — is a valid no-op handle.
type Span struct {
	t   *activeTrace
	idx int
}

// StartRequest opens a root span for a request. End on the returned span
// completes the trace and publishes it into the ring.
func (r *SpanRing) StartRequest(requestID, endpoint string) *Span {
	if r == nil {
		return nil
	}
	start := r.now()
	t := &activeTrace{
		ring:  r,
		start: start,
		rt: RequestTrace{
			RequestID:   requestID,
			Endpoint:    endpoint,
			StartUnixUs: start.UnixMicro(),
			Spans:       []SpanRecord{{Name: endpoint, Parent: -1, DurUs: -1}},
		},
	}
	return &Span{t: t, idx: 0}
}

// StartChild opens a child span under s.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	now := t.ring.now()
	t.mu.Lock()
	idx := len(t.rt.Spans)
	t.rt.Spans = append(t.rt.Spans, SpanRecord{
		Name:    name,
		Parent:  s.idx,
		StartUs: now.Sub(t.start).Microseconds(),
		DurUs:   -1, // open; End (or the root's End) closes it
	})
	t.mu.Unlock()
	return &Span{t: t, idx: idx}
}

// SetTag annotates the span.
func (s *Span) SetTag(k, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.t.rt.Spans[s.idx].Tags = append(s.t.rt.Spans[s.idx].Tags, Tag{K: k, V: v})
	s.t.mu.Unlock()
}

// End closes the span; ending the root publishes the trace into the ring.
// Children still open when the root ends are closed at the root's end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	now := t.ring.now()
	t.mu.Lock()
	rec := &t.rt.Spans[s.idx]
	if rec.DurUs < 0 {
		if rec.DurUs = now.Sub(t.start).Microseconds() - rec.StartUs; rec.DurUs < 0 {
			rec.DurUs = 0
		}
	}
	if s.idx != 0 {
		t.mu.Unlock()
		return
	}
	t.rt.DurationUs = rec.DurUs
	for i := range t.rt.Spans {
		if c := &t.rt.Spans[i]; c.DurUs < 0 {
			if c.DurUs = t.rt.DurationUs - c.StartUs; c.DurUs < 0 {
				c.DurUs = 0
			}
		}
	}
	// Publish a copy: a misbehaving child ending after the root must not
	// mutate what the ring (and its readers) now own.
	done := t.rt
	done.Spans = append([]SpanRecord(nil), t.rt.Spans...)
	t.mu.Unlock()
	t.ring.publish(done)
}

// noopEnd is the shared do-nothing closer handed out when tracing is off,
// keeping the disabled path allocation-free.
var noopEnd = func() {}

// StartSpan adapts a span to the core.Tracer stage seam: it opens a child
// and returns its End.
func (s *Span) StartSpan(name string) func() {
	if s == nil {
		return noopEnd
	}
	c := s.StartChild(name)
	return func() { c.End() }
}

// publish stores one completed trace, evicting the oldest when full.
func (r *SpanRing) publish(rt RequestTrace) {
	r.mu.Lock()
	r.traces[r.next] = rt
	r.next = (r.next + 1) % len(r.traces)
	if r.stored < len(r.traces) {
		r.stored++
	}
	r.total++
	r.mu.Unlock()
}

// Stats reports how many traces are stored and how many were ever recorded.
func (r *SpanRing) Stats() (stored int, total uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stored, r.total
}

// Capacity returns the ring size (0 for a disabled ring).
func (r *SpanRing) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.traces)
}

// Snapshot copies the stored traces, oldest first.
func (r *SpanRing) Snapshot() []RequestTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestTrace, 0, r.stored)
	first := r.next - r.stored
	for i := 0; i < r.stored; i++ {
		idx := (first + i + len(r.traces)) % len(r.traces)
		rt := r.traces[idx]
		rt.Spans = append([]SpanRecord(nil), rt.Spans...)
		out = append(out, rt)
	}
	return out
}

// spanRingFile is the /debug/traces JSON payload.
type spanRingFile struct {
	Capacity int            `json:"capacity"`
	Stored   int            `json:"stored"`
	Total    uint64         `json:"total"`
	Traces   []RequestTrace `json:"traces"`
}

// WriteJSON renders the ring's traces (oldest first) as indented JSON.
func (r *SpanRing) WriteJSON(w io.Writer) error {
	stored, total := r.Stats()
	f := spanRingFile{Capacity: r.Capacity(), Stored: stored, Total: total, Traces: r.Snapshot()}
	if f.Traces == nil {
		f.Traces = []RequestTrace{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteChrome renders the ring in the Chrome trace-event format used for
// simulator timelines: each trace becomes one thread of a "requests"
// process, with request wall time on the trace axis.
func (r *SpanRing) WriteChrome(w io.Writer) error {
	const pidRequests = 3
	traces := r.Snapshot()
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: pidRequests, Args: map[string]any{"name": "requests"}},
	}
	for i, rt := range traces {
		tid := int32(i + 1)
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: pidRequests, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("%s %s", rt.Endpoint, rt.RequestID)}})
		for _, sp := range rt.Spans {
			args := map[string]any{"request_id": rt.RequestID}
			for _, tag := range sp.Tags {
				args[tag.K] = tag.V
			}
			events = append(events, traceEvent{
				Name: sp.Name, Cat: "request", Ph: "X",
				Ts:  float64(rt.StartUnixUs + sp.StartUs),
				Dur: float64(sp.DurUs),
				Pid: pidRequests, Tid: tid, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
