package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// LoggerOptions configures a Logger.
type LoggerOptions struct {
	// MaxBytes rotates the log when appending a record would push the
	// current file past this size (default 64 MiB; <= 0 keeps the default).
	MaxBytes int64
	// Clock injects the timestamp source (default: the real clock).
	Clock func() time.Time
}

// DefaultMaxBytes is the rotation threshold when LoggerOptions.MaxBytes is
// unset.
const DefaultMaxBytes = 64 << 20

// keepRotations is how many rotated generations are retained as
// path.1 .. path.N.
const keepRotations = 2

// LoggerStats counts a Logger's lifetime activity.
type LoggerStats struct {
	Lines     uint64 `json:"lines"`
	Bytes     uint64 `json:"bytes"`
	Rotations uint64 `json:"rotations"`
	Errors    uint64 `json:"errors"`
}

// Logger appends Records to a JSONL file with size-based rotation. Every
// record is written with a single Write call (marshalled line + newline)
// under one mutex, so concurrent appenders can interleave lines but never
// tear one — the hammer test in the serve package holds this under -race.
type Logger struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64
	max   int64
	clock func() time.Time
	stats LoggerStats
}

// NewLogger opens (creating or appending) the audit log at path.
func NewLogger(path string, opts LoggerOptions) (*Logger, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Clock == nil {
		opts.Clock = realClock
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: opening log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("audit: stat log: %w", err)
	}
	return &Logger{f: f, path: path, size: st.Size(), max: opts.MaxBytes,
		clock: opts.Clock}, nil
}

// Path returns the active log file path.
func (l *Logger) Path() string { return l.path }

// Append stamps (when the record has no timestamp) and writes one record as
// a single JSONL line, rotating first if the line would overflow MaxBytes.
func (l *Logger) Append(rec Record) error {
	rec.V = SchemaVersion
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.TimeUnixUs == 0 {
		rec.TimeUnixUs = l.clock().UnixMicro()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		l.stats.Errors++
		return fmt.Errorf("audit: encoding record: %w", err)
	}
	line = append(line, '\n')
	if l.size > 0 && l.size+int64(len(line)) > l.max {
		//mpicollvet:ignore lockscope the mutex IS the write-path serialization; rotation must be atomic with the append deciding it
		if err := l.rotateLocked(); err != nil {
			l.stats.Errors++
			return err
		}
	}
	n, err := l.f.Write(line) //mpicollvet:ignore lockscope single-writer invariant: one record = one uninterleaved line requires writing under the lock
	l.size += int64(n)
	l.stats.Bytes += uint64(n)
	if err != nil {
		l.stats.Errors++
		return fmt.Errorf("audit: appending record: %w", err)
	}
	l.stats.Lines++
	return nil
}

// rotateLocked shifts path.{k} → path.{k+1} (dropping the oldest), moves the
// active file to path.1, and reopens a fresh file.
func (l *Logger) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("audit: closing for rotation: %w", err)
	}
	if err := os.Remove(fmt.Sprintf("%s.%d", l.path, keepRotations)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("audit: dropping oldest rotation: %w", err)
	}
	for k := keepRotations - 1; k >= 1; k-- {
		from := fmt.Sprintf("%s.%d", l.path, k)
		if _, err := os.Stat(from); err != nil {
			continue
		}
		if err := os.Rename(from, fmt.Sprintf("%s.%d", l.path, k+1)); err != nil {
			return fmt.Errorf("audit: shifting rotation %d: %w", k, err)
		}
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		return fmt.Errorf("audit: rotating active log: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: reopening after rotation: %w", err)
	}
	l.f = f
	l.size = 0
	l.stats.Rotations++
	return nil
}

// Stats returns lifetime counters.
func (l *Logger) Stats() LoggerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Sync flushes the log to stable storage.
func (l *Logger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync() //mpicollvet:ignore lockscope Sync must exclude rotation swapping l.f out from under it
}

// Close flushes and closes the log.
func (l *Logger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close() //mpicollvet:ignore lockscope Close must exclude concurrent appends to the file it is closing
}
