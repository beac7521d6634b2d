// Streaming audit reader: Follow tails a live audit log the way the strict
// batch reader (Scan) reads a finished one — every line must parse into a
// valid Record — but keeps going as the serving process appends, surviving
// size-based rotation (logger.go renames the active file to path.1 and
// reopens a fresh one). It is the observation inlet of the online-retraining
// loop and of `mpicollaudit -follow`.

package audit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// FollowOptions configures a Follow run.
type FollowOptions struct {
	// Poll is called whenever the log has no new complete line, before the
	// next read attempt. The default sleeps DefaultFollowPoll of real time;
	// tests and deterministic drives inject their own (e.g. one that feeds
	// more records, or one that cancels the context when a script runs dry).
	Poll func()
}

// DefaultFollowPoll is the real-time pause between read attempts when no
// Poll hook is injected.
const DefaultFollowPoll = 100 * time.Millisecond

// realPoll is the follow reader's one real-time pause: tail polling is I/O
// pacing against a file another process appends to, never simulated state,
// and tests inject FollowOptions.Poll instead of calling this.
func realPoll() {
	time.Sleep(DefaultFollowPoll) //mpicollvet:ignore wallclock follow-tail pacing against a live file is real-time I/O; the poll hook is injectable and tests pin it
}

// Follow reads the audit log at path from the beginning and then tails it,
// calling fn for every record, until ctx is cancelled (which returns nil —
// stopping a tail is a normal exit, not a failure). Every line is held to
// the same strict schema as Scan; a malformed line aborts the follow with
// its line number. A log that does not exist yet is waited for: a follower
// may legitimately start before the server's first append creates it.
//
// Rotation handling: when the file shrinks or is replaced (the Logger
// renames the active log aside and reopens), Follow finishes nothing — the
// rename happens under the Logger's write lock between complete lines, so
// reopening the new active file at offset zero loses no records that were
// appended after the rotation. Records already read from the rotated-away
// file are never re-delivered.
func Follow(ctx context.Context, path string, opts FollowOptions, fn func(Record) error) error {
	if opts.Poll == nil {
		opts.Poll = realPoll
	}

	f, err := openFollow(ctx, path, opts.Poll)
	if err != nil || f == nil {
		return err
	}
	defer func() { _ = f.Close() }()

	var (
		buf    []byte // partial line carried across read attempts
		offset int64  // bytes consumed from the current file
		lineNo int    // 1-based line number in the current file
	)
	chunk := make([]byte, 64<<10)
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		n, rerr := f.Read(chunk)
		if n > 0 {
			offset += int64(n)
			buf = append(buf, chunk[:n]...)
			for {
				nl := bytes.IndexByte(buf, '\n')
				if nl < 0 {
					break
				}
				line := bytes.TrimSpace(buf[:nl])
				buf = buf[nl+1:]
				lineNo++
				if len(line) == 0 {
					continue
				}
				if len(line) > maxLineBytes {
					return fmt.Errorf("audit: follow %s line %d: line exceeds %d bytes", path, lineNo, maxLineBytes)
				}
				if err := handleLine(line, fn); err != nil {
					return fmt.Errorf("audit: follow %s line %d: %w", path, lineNo, err)
				}
			}
			if len(buf) > maxLineBytes {
				return fmt.Errorf("audit: follow %s line %d: unterminated line exceeds %d bytes", path, lineNo+1, maxLineBytes)
			}
			continue
		}
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return fmt.Errorf("audit: follow %s: %w", path, rerr)
		}
		// At EOF: a rotation replaced the file when the path now names a
		// different or shorter file than the one we hold open.
		rotated, err := followRotated(f, path, offset)
		if err != nil {
			return err
		}
		if rotated {
			// Mid-rotation the path may briefly not exist (rename-aside before
			// the fresh file is created); wait for it like a late-starting tail.
			nf, err := openFollow(ctx, path, opts.Poll)
			if err != nil {
				return fmt.Errorf("audit: follow reopening after rotation: %w", err)
			}
			if nf == nil {
				return nil
			}
			_ = f.Close()
			f, offset, lineNo, buf = nf, 0, 0, nil
			continue
		}
		opts.Poll()
	}
}

// openFollow opens the log, calling poll until it appears. A nil file with
// nil error means the context was cancelled while waiting.
func openFollow(ctx context.Context, path string, poll func()) (*os.File, error) {
	for {
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		if !os.IsNotExist(err) {
			return nil, fmt.Errorf("audit: follow: %w", err)
		}
		if ctx.Err() != nil {
			return nil, nil
		}
		poll()
	}
}

// followRotated reports whether the open file is no longer the active log:
// the path is gone (mid-rotation), names a file of a different identity, or
// shrank below what was already consumed (truncation).
func followRotated(f *os.File, path string, offset int64) (bool, error) {
	cur, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return true, nil
		}
		return false, fmt.Errorf("audit: follow stat: %w", err)
	}
	held, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("audit: follow stat open file: %w", err)
	}
	if !os.SameFile(cur, held) {
		return true, nil
	}
	return cur.Size() < offset, nil
}
