package audit

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// maxLineBytes bounds one audit line; a legitimate record is a few hundred
// bytes, so a megabyte means the file is not an audit log.
const maxLineBytes = 1 << 20

// Scan reads a JSONL audit stream strictly: every line must parse into a
// Record with no unknown fields and pass Validate. fn is called per record;
// any error carries the 1-based line number.
func Scan(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := handleLine(line, fn); err != nil {
			return fmt.Errorf("audit: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("audit: line %d: %w", lineNo+1, err)
	}
	return nil
}

// handleLine parses one non-blank audit line strictly (no unknown fields,
// and the record must pass Validate) and passes the record to fn. Scan and
// Follow both read lines through it and prefix its error with the line's
// position.
func handleLine(line []byte, fn func(Record) error) error {
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return err
	}
	if err := rec.Validate(); err != nil {
		return err
	}
	return fn(rec)
}

// ReadLog loads every record of the audit log at path.
func ReadLog(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audit: opening log: %w", err)
	}
	defer func() { _ = f.Close() }()
	var recs []Record
	if err := Scan(f, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return recs, nil
}
