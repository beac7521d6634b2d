package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per read, making span timings exact.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.UnixMicro(1_000_000), step: 10 * time.Microsecond}
}

func TestSpanTreeAndRing(t *testing.T) {
	r := NewSpanRing(4)
	r.clock = newFakeClock().now

	root := r.StartRequest("req-1", "select")
	child := root.StartChild("cache")
	child.SetTag("cache", "miss")
	child.End()
	grand := root.StartChild("argmin")
	grand.End()
	root.End()

	traces := r.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	rt := traces[0]
	if rt.RequestID != "req-1" || rt.Endpoint != "select" {
		t.Errorf("trace identity = %q/%q", rt.RequestID, rt.Endpoint)
	}
	if len(rt.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rt.Spans))
	}
	if rt.Spans[0].Parent != -1 || rt.Spans[1].Parent != 0 || rt.Spans[2].Parent != 0 {
		t.Errorf("parent links = %d,%d,%d", rt.Spans[0].Parent, rt.Spans[1].Parent, rt.Spans[2].Parent)
	}
	if rt.Spans[1].Name != "cache" || len(rt.Spans[1].Tags) != 1 || rt.Spans[1].Tags[0].V != "miss" {
		t.Errorf("child span = %+v", rt.Spans[1])
	}
	if rt.DurationUs <= 0 || rt.Spans[0].DurUs != rt.DurationUs {
		t.Errorf("root duration %d vs trace %d", rt.Spans[0].DurUs, rt.DurationUs)
	}
	for i, sp := range rt.Spans {
		if sp.DurUs < 0 {
			t.Errorf("span %d left open: %+v", i, sp)
		}
	}
}

func TestSpanRingEviction(t *testing.T) {
	r := NewSpanRing(2)
	r.clock = newFakeClock().now
	for _, id := range []string{"a", "b", "c"} {
		r.StartRequest(id, "select").End()
	}
	stored, total := r.Stats()
	if stored != 2 || total != 3 {
		t.Fatalf("stored=%d total=%d, want 2/3", stored, total)
	}
	traces := r.Snapshot()
	if traces[0].RequestID != "b" || traces[1].RequestID != "c" {
		t.Errorf("ring kept %q,%q; want oldest-first b,c", traces[0].RequestID, traces[1].RequestID)
	}
}

func TestSpanUnfinishedChildClosedAtRootEnd(t *testing.T) {
	r := NewSpanRing(1)
	r.clock = newFakeClock().now
	root := r.StartRequest("req", "select")
	root.StartChild("leaked") // never ended
	root.End()
	rt := r.Snapshot()[0]
	if len(rt.Spans) != 2 {
		t.Fatalf("got %d spans", len(rt.Spans))
	}
	leaked := rt.Spans[1]
	if leaked.DurUs < 0 || leaked.StartUs+leaked.DurUs > rt.DurationUs {
		t.Errorf("leaked child not clamped to root: %+v (root %dus)", leaked, rt.DurationUs)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *SpanRing
	sp := r.StartRequest("x", "y")
	if sp != nil {
		t.Fatal("nil ring returned a live span")
	}
	sp.SetTag("k", "v")
	c := sp.StartChild("child")
	c.End()
	sp.StartSpan("stage")()
	sp.End()
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil ring snapshot = %v", got)
	}
	if NewSpanRing(0) != nil {
		t.Error("NewSpanRing(0) should disable tracing")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"capacity": 0`) {
		t.Errorf("disabled ring JSON: %s", buf.String())
	}
}

// TestSpanExportsStable pins the JSON and Chrome exports under an injected
// clock: byte-stable artifacts are the repo-wide contract (DESIGN §5).
func TestSpanExportsStable(t *testing.T) {
	build := func() *SpanRing {
		r := NewSpanRing(2)
		r.clock = newFakeClock().now
		root := r.StartRequest("req-7", "select")
		ch := root.StartChild("cache")
		ch.SetTag("cache", "hit")
		ch.End()
		root.End()
		return r
	}
	var a, b, ca, cb bytes.Buffer
	ra, rb := build(), build()
	if err := ra.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("JSON export unstable:\n%s\nvs\n%s", a.String(), b.String())
	}
	if err := ra.WriteChrome(&ca); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteChrome(&cb); err != nil {
		t.Fatal(err)
	}
	if ca.String() != cb.String() {
		t.Errorf("Chrome export unstable:\n%s\nvs\n%s", ca.String(), cb.String())
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ca.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) != 4 { // process meta + thread meta + 2 spans
		t.Errorf("chrome export has %d events, want 4", len(chrome.TraceEvents))
	}
}

func TestSpanConcurrentReadersAndWriters(t *testing.T) {
	r := NewSpanRing(8)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Snapshot()
			var buf bytes.Buffer
			_ = r.WriteChrome(&buf)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := r.StartRequest("req", "select")
				c := root.StartChild("cache")
				c.SetTag("w", "x")
				c.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if _, total := r.Stats(); total != 800 {
		t.Errorf("recorded %d traces, want 800", total)
	}
}
