package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testClock is a deterministic microsecond-stepping clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1700000000, 0).UTC()}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(10 * time.Microsecond)
	return c.t
}

// pred boxes a prediction for Record.PredictedSeconds.
func pred(v float64) *float64 { return &v }

// mkRecord builds a valid record with overridable instance fields.
func mkRecord(id string, nodes, ppn int, msize int64, p float64) Record {
	return Record{
		RequestID: id, Endpoint: "select",
		Model: "d1-gam", Coll: "bcast", Lib: "Open MPI", Machine: "Hydra", Dataset: "d1",
		Generation: 1, Nodes: nodes, PPN: ppn, Msize: msize,
		ConfigID: 2, AlgID: 1, Label: "binomial seg=8192",
		PredictedSeconds: pred(p), LatencyUs: 42,
	}
}

// mkFallback builds a valid fallback record.
func mkFallback(id string, msize int64, reason string) Record {
	r := mkRecord(id, 4, 8, msize, 0)
	r.PredictedSeconds = nil
	r.Fallback = true
	r.FallbackReason = reason
	r.ConfigID = 0
	r.Label = "library default"
	return r
}

func TestLoggerStampsWithInjectedClock(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	clk := newTestClock()
	lg, err := NewLogger(path, LoggerOptions{Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lg.Append(mkRecord(fmt.Sprintf("r%d", i), 4, 8, 1024, 1e-4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	base := time.Unix(1700000000, 0).UTC().Add(10 * time.Microsecond).UnixMicro()
	for i, r := range recs {
		want := base + int64(i*10)
		if r.TimeUnixUs != want {
			t.Errorf("record %d: ts %d, want %d", i, r.TimeUnixUs, want)
		}
		if r.V != SchemaVersion {
			t.Errorf("record %d: schema version %d", i, r.V)
		}
	}
}

func TestLoggerPreservesExplicitTimestamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	lg, err := NewLogger(path, LoggerOptions{Clock: newTestClock().now})
	if err != nil {
		t.Fatal(err)
	}
	r := mkRecord("r0", 4, 8, 1024, 1e-4)
	r.TimeUnixUs = 12345
	if err := lg.Append(r); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].TimeUnixUs != 12345 {
		t.Fatalf("timestamp overwritten: %d", recs[0].TimeUnixUs)
	}
}

func TestLoggerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	// Each line is a few hundred bytes; cap at 1 KiB so rotation triggers
	// quickly.
	lg, err := NewLogger(path, LoggerOptions{MaxBytes: 1 << 10, Clock: newTestClock().now})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		if err := lg.Append(mkRecord(fmt.Sprintf("r%03d", i), 4, 8, int64(1024*(i+1)), 1e-4)); err != nil {
			t.Fatal(err)
		}
	}
	st := lg.Stats()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Lines != total {
		t.Fatalf("stats lines %d, want %d", st.Lines, total)
	}
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	if st.Errors != 0 {
		t.Fatalf("unexpected errors: %d", st.Errors)
	}
	// Every retained generation must hold only whole, valid lines, and no
	// more than keepRotations rotations may exist.
	if _, err := os.Stat(fmt.Sprintf("%s.%d", path, keepRotations+1)); !os.IsNotExist(err) {
		t.Fatalf("rotation beyond keepRotations exists: %v", err)
	}
	kept := 0
	for _, p := range []string{path, path + ".1", path + ".2"} {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		recs, err := ReadLog(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		kept += len(recs)
	}
	if kept == 0 || kept > total {
		t.Fatalf("kept %d records across generations, want in (0, %d]", kept, total)
	}
}

func TestLoggerConcurrentAppendsAreAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	lg, err := NewLogger(path, LoggerOptions{Clock: newTestClock().now})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := mkRecord(fmt.Sprintf("w%d-%d", w, i), 4, 8, 1024, 1e-4)
				if err := lg.Append(r); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadLog(path)
	if err != nil {
		t.Fatalf("torn or invalid line: %v", err)
	}
	if len(recs) != workers*per {
		t.Fatalf("got %d records, want %d", len(recs), workers*per)
	}
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.RequestID] = true
	}
	if len(ids) != workers*per {
		t.Fatalf("got %d unique request ids, want %d", len(ids), workers*per)
	}
}

func TestScanRejectsUnknownFields(t *testing.T) {
	line := `{"v":1,"ts_us":1,"request_id":"r","endpoint":"select","model":"m","coll":"bcast","lib":"Open MPI","machine":"Hydra","dataset":"d1","generation":1,"nodes":2,"ppn":2,"msize":8,"config_id":0,"alg_id":0,"label":"x","predicted_seconds":1e-5,"cached":false,"latency_us":1,"bogus":true}`
	err := Scan(strings.NewReader(line), func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("want line-1 unknown-field error, got %v", err)
	}
}

func TestScanRejectsInvalidRecords(t *testing.T) {
	cases := map[string]Record{
		"wrong version":     func() Record { r := mkRecord("r", 2, 2, 8, 1e-5); r.V = 99; return r }(),
		"no request id":     func() Record { r := mkRecord("", 2, 2, 8, 1e-5); return r }(),
		"bad instance":      func() Record { r := mkRecord("r", 0, 2, 8, 1e-5); return r }(),
		"missing predicted": func() Record { r := mkRecord("r", 2, 2, 8, 1e-5); r.PredictedSeconds = nil; return r }(),
		"fallback no reason": func() Record {
			r := mkFallback("r", 8, "extrapolation")
			r.FallbackReason = ""
			return r
		}(),
	}
	for name, rec := range cases {
		if rec.V == 0 {
			rec.V = SchemaVersion
		}
		if rec.TimeUnixUs == 0 {
			rec.TimeUnixUs = 1
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Scan(bytes.NewReader(b), func(Record) error { return nil }); err == nil {
			t.Errorf("%s: scan accepted invalid record", name)
		}
	}
}

func TestScanSkipsBlankLines(t *testing.T) {
	r := mkRecord("r", 2, 2, 8, 1e-5)
	r.V = SchemaVersion
	r.TimeUnixUs = 1
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	n := 0
	input := "\n" + line + "\n\n" + line + "\n"
	if err := Scan(strings.NewReader(input), func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("got %d records, want 2", n)
	}
}

func TestSummaryRenderIsOrderIndependentAndStable(t *testing.T) {
	recs := []Record{
		mkRecord("a", 4, 8, 1024, 1.0e-4),
		mkRecord("b", 8, 8, 4096, 2.0e-4),
		mkFallback("c", 1<<40, "extrapolation"),
		func() Record { r := mkRecord("d", 4, 8, 1024, 1.0e-4); r.Cached = true; return r }(),
		func() Record { r := mkRecord("e", 4, 8, 2048, 1.5e-4); r.Model = "d2-rf"; return r }(),
	}
	for i := range recs {
		recs[i].V = SchemaVersion
		recs[i].TimeUnixUs = int64(i + 1)
	}
	got := Summarize(recs).Render()

	rev := make([]Record, len(recs))
	for i, r := range recs {
		rev[len(recs)-1-i] = r
	}
	if again := Summarize(rev).Render(); again != got {
		t.Fatalf("summary depends on record order:\n%s\n--- vs ---\n%s", got, again)
	}
	for _, want := range []string{"d1-gam", "d2-rf", "Fallback breakdown: d1-gam", "extrapolation", "records: 5"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	if Summarize(recs).Render() != got {
		t.Fatal("summary render not byte-stable")
	}
}

func TestDriftDetectsFallbackAndShift(t *testing.T) {
	var recs []Record
	// d1-gam: healthy first half, then predictions 4x larger — a shift breach.
	for i := 0; i < 40; i++ {
		p := 1.0e-4
		if i >= 20 {
			p = 4.0e-4
		}
		recs = append(recs, mkRecord(fmt.Sprintf("a%d", i), 4, 8, 1024, p))
	}
	// d2-rf: all fallbacks — fallback breach.
	for i := 0; i < 40; i++ {
		r := mkFallback(fmt.Sprintf("b%d", i), 1<<40, "extrapolation")
		r.Model = "d2-rf"
		recs = append(recs, r)
	}
	for i := range recs {
		recs[i].V = SchemaVersion
		recs[i].TimeUnixUs = int64(i + 1)
	}
	rep := Drift(recs)
	if len(rep.Models) != 2 {
		t.Fatalf("got %d models, want 2", len(rep.Models))
	}
	gam, rf := rep.Models[0], rep.Models[1]
	if gam.Model != "d1-gam" || rf.Model != "d2-rf" {
		t.Fatalf("model order: %s, %s", gam.Model, rf.Model)
	}
	if gam.ShiftLevel.String() != "breach" {
		t.Errorf("d1-gam shift level %s (shift %.2f), want breach", gam.ShiftLevel, gam.Shift)
	}
	if gam.FallbackLevel.String() != "ok" {
		t.Errorf("d1-gam fallback level %s, want ok", gam.FallbackLevel)
	}
	if rf.FallbackLevel.String() != "breach" || rf.Level().String() != "breach" {
		t.Errorf("d2-rf levels: fallback %s overall %s, want breach", rf.FallbackLevel, rf.Level())
	}
	if got, again := rep.Render(), Drift(recs).Render(); got != again {
		t.Fatal("drift render not byte-stable")
	}
}
