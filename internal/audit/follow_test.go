package audit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// followRecord builds a minimal valid record with a distinguishing sequence
// number in the request id.
func followRecord(seq int) Record {
	pred := 0.001 * float64(seq+1)
	return Record{
		V: SchemaVersion, TimeUnixUs: int64(1000 + seq),
		RequestID: fmt.Sprintf("f-%d", seq), Endpoint: "select",
		Model: "d1-gam", Coll: "bcast", Lib: "Open MPI", Machine: "Hydra",
		Dataset: "d1", Generation: 1,
		Nodes: 2, PPN: 1, Msize: 64,
		ConfigID: 1, AlgID: 1, Label: "binary-tree",
		PredictedSeconds: &pred,
	}
}

// TestFollowStreamsAppends drives Follow with an injected poll hook that
// appends more records between read attempts, and checks every record is
// delivered exactly once, in order.
func TestFollowStreamsAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	clock := func() time.Time { return time.UnixMicro(1) }
	lg, err := NewLogger(path, LoggerOptions{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lg.Close() }()

	const total = 20
	written := 0
	appendBatch := func(n int) {
		for i := 0; i < n && written < total; i++ {
			if err := lg.Append(followRecord(written)); err != nil {
				t.Errorf("append %d: %v", written, err)
			}
			written++
		}
	}
	appendBatch(5)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []string
	err = Follow(ctx, path, FollowOptions{
		Poll: func() {
			if written < total {
				appendBatch(5)
				return
			}
			cancel()
		},
	}, func(r Record) error {
		got = append(got, r.RequestID)
		return nil
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if len(got) != total {
		t.Fatalf("followed %d records, want %d: %v", len(got), total, got)
	}
	for i, id := range got {
		if want := fmt.Sprintf("f-%d", i); id != want {
			t.Errorf("record %d: got %s, want %s", i, id, want)
		}
	}
}

// TestFollowSurvivesRotation rotates the log (tiny MaxBytes) while a
// follower tails it and checks no record is lost or duplicated.
func TestFollowSurvivesRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	clock := func() time.Time { return time.UnixMicro(1) }
	// ~3 records per generation: every few appends rotate the file.
	lg, err := NewLogger(path, LoggerOptions{MaxBytes: 800, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = lg.Close() }()

	const total = 12
	written := 0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []string
	err = Follow(ctx, path, FollowOptions{
		Poll: func() {
			if written < total {
				if err := lg.Append(followRecord(written)); err != nil {
					t.Errorf("append %d: %v", written, err)
				}
				written++
				return
			}
			cancel()
		},
	}, func(r Record) error {
		got = append(got, r.RequestID)
		return nil
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if lg.Stats().Rotations == 0 {
		t.Fatalf("test never rotated; lower MaxBytes")
	}
	// Records delivered must be a suffix-free ordered subsequence starting
	// at whatever generation the follower was on when rotation happened; a
	// rotation between the follower's reads must lose nothing, so with the
	// follower keeping pace every record arrives exactly once.
	if len(got) != total {
		t.Fatalf("followed %d records across rotations, want %d: %v", len(got), total, got)
	}
	for i, id := range got {
		if want := fmt.Sprintf("f-%d", i); id != want {
			t.Errorf("record %d: got %s, want %s", i, id, want)
		}
	}
}

// TestFollowWaitsForFile starts the follower before the log exists.
func TestFollowWaitsForFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polls := 0
	var got int
	err := Follow(ctx, path, FollowOptions{
		Poll: func() {
			polls++
			if polls == 3 {
				clock := func() time.Time { return time.UnixMicro(1) }
				lg, err := NewLogger(path, LoggerOptions{Clock: clock})
				if err != nil {
					t.Errorf("creating log: %v", err)
					cancel()
					return
				}
				_ = lg.Append(followRecord(0))
				_ = lg.Close()
				return
			}
			if polls > 3 {
				cancel()
			}
		},
	}, func(r Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatalf("follow: %v", err)
	}
	if got != 1 {
		t.Fatalf("followed %d records, want 1", got)
	}
}

// TestFollowRejectsMalformedLine keeps the strict-schema contract in tail
// mode: garbage aborts with a line number instead of being skipped.
func TestFollowRejectsMalformedLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	if err := os.WriteFile(path, []byte("{\"not\":\"a record\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Follow(ctx, path, FollowOptions{Poll: cancel}, func(Record) error { return nil })
	if err == nil {
		t.Fatalf("malformed line not rejected")
	}
}
