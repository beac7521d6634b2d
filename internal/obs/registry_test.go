package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix get-or-create with increments to exercise the registry
			// fast path under the race detector.
			for i := 0; i < perG; i++ {
				r.Counter("test_total", Labels{"k": "v"}).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test_total", Labels{"k": "v"}).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("consumed_seconds", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), 8*1000*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// Uniform values 1..10000: quantiles are known exactly; the bucketed
	// estimate must stay within the documented ~2.2% relative error.
	rng := rand.New(rand.NewSource(1))
	vals := rng.Perm(10000)
	for _, v := range vals {
		h.Observe(float64(v + 1))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.10, 1000}, {0.50, 5000}, {0.90, 9000}, {0.99, 9900},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.05 {
			t.Errorf("q%.2f = %v, want %v +- 5%% (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 10000 {
		t.Errorf("extreme quantiles must be exact min/max: %v, %v", h.Quantile(0), h.Quantile(1))
	}
	if h.Count() != 10000 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-10000*10001/2) > 1e-6 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Observe(0)
	h.Observe(0)
	h.Observe(4)
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("zero bucket quantile = %v, want 0", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("bench_reps_total", Labels{"dataset": "d1", "machine": "Hydra"}).Add(500)
	r.Counter("bench_reps_total", Labels{"dataset": "d8", "machine": "SuperMUC-NG"}).Add(42)
	r.Gauge("bench_consumed_sim_seconds", Labels{"dataset": "d1"}).Add(34.5)
	hist := r.Histogram("core_select_seconds", Labels{"learner": "gam"})
	for i := 1; i <= 100; i++ {
		hist.Observe(float64(i) * 1e-6)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got.Counters) != 2 || len(got.Gauges) != 1 || len(got.Histograms) != 1 {
		t.Errorf("unexpected series counts: %+v", got)
	}
	// Deterministic ordering by (name, labels).
	if got.Counters[0].Labels["dataset"] != "d1" || got.Counters[1].Labels["dataset"] != "d8" {
		t.Errorf("counters not sorted: %+v", got.Counters)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_total", Labels{"coll": "bcast"}).Add(7)
	r.Histogram("rep_seconds", nil).Observe(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `sim_events_total{coll="bcast"} 7`) {
		t.Errorf("text output missing counter line:\n%s", out)
	}
	if !strings.Contains(out, "rep_seconds{} count=1") {
		t.Errorf("text output missing histogram line:\n%s", out)
	}
}

func TestFlagLevel(t *testing.T) {
	if FlagLevel(false, false) != LevelInfo || FlagLevel(true, false) != LevelDebug ||
		FlagLevel(false, true) != LevelQuiet || FlagLevel(true, true) != LevelQuiet {
		t.Error("FlagLevel mapping wrong")
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Infof("should not panic")
	l.Debugf("should not panic")
	l.Errorf("nil logger drops errors silently")
	p := NewProgress(l, "x")
	p.Update(1, 2)
	p.Finish()
}

// ReadSnapshot parses a snapshot previously written by WriteJSON.
func ReadSnapshot(rd io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(rd).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parsing snapshot: %w", err)
	}
	return s, nil
}
