package dataset

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"strings"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/obs"
)

// ErrInterrupted is returned by GenerateResumable when the stop predicate
// fires mid-run. The journal on disk holds every completed measurement; a
// later run with resume=true picks up from there.
var ErrInterrupted = errors.New("dataset: generation interrupted")

// journalMagic is the first field of a journal's header line. Bump it when
// the row layout changes so stale journals are regenerated, not misparsed.
const journalMagic = "#journal-v1"

// journalIdentity fingerprints everything that determines the measured
// values: the spec identity, its grids, and every benchmark option that
// perturbs timings. A resumed run only reuses journal rows whose header
// carries the same fingerprint — resuming a clean run from a fault-injected
// journal (or vice versa) silently degenerates into a fresh run.
//
// The worker count (GOMAXPROCS) is not an option and not part of it: it
// shards the sweep but never changes a measured value (seeds are
// content-derived and commits are cell-ordered), so a journal written at one
// worker count resumes at any other.
func journalIdentity(spec Spec, opts bench.Options) string {
	faults := ""
	if opts.Faults != nil {
		faults = opts.Faults.String()
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|nodes=%v|ppns=%v|msizes=%v|reps=%d|budget=%g|jitter=%g|retries=%d|k=%g|faults=%s",
		spec.Name, spec.Lib, spec.Version, spec.Coll, spec.Machine,
		spec.Nodes, spec.PPNs, spec.Msizes,
		opts.MaxReps, opts.MaxTime, opts.SyncJitter,
		opts.OutlierRetries, opts.OutlierK, faults)
}

// journal is an append-only progress log: one header line identifying the
// run, then one CSV row per completed measurement, flushed immediately so a
// crash or SIGINT between measurements loses at most the in-flight one.
type journal struct {
	f *os.File
	w *csv.Writer
}

func createJournal(path, identity string) (*journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{journalMagic, identity}); err != nil {
		_ = f.Close() // already failing with the write error
		return nil, err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close() // already failing with the flush error
		return nil, err
	}
	return &journal{f: f, w: w}, nil
}

func openJournalAppend(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, w: csv.NewWriter(f)}, nil
}

// record appends one measured sample and flushes it to the OS, so the row
// survives a process kill.
func (j *journal) record(s Sample) error {
	if err := j.w.Write(s.appendFields(nil)); err != nil {
		return err
	}
	j.w.Flush()
	return j.w.Error()
}

func (j *journal) Close() error {
	j.w.Flush()
	if err := j.w.Error(); err != nil {
		_ = j.f.Close() // already failing with the flush error
		return err
	}
	return j.f.Close()
}

// readJournal loads a journal's identity header and completed samples. A
// torn final line (the process died mid-write) is tolerated and dropped;
// corruption anywhere else is an error. A missing file returns os.ErrNotExist.
func readJournal(path string) (identity string, samples map[sampleKey]Sample, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer func() { _ = f.Close() }() // read-only file; scanner errors are checked

	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("dataset: journal %s: %w", path, err)
	}
	if len(lines) == 0 {
		return "", nil, fmt.Errorf("dataset: journal %s: empty", path)
	}
	header, err := csv.NewReader(strings.NewReader(lines[0])).Read()
	if err != nil || len(header) != 2 || header[0] != journalMagic {
		return "", nil, fmt.Errorf("dataset: journal %s: malformed header %q", path, lines[0])
	}
	identity = header[1]
	samples = make(map[sampleKey]Sample, len(lines)-1)
	for i, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		rec, err := csv.NewReader(strings.NewReader(ln)).Read()
		var s Sample
		if err == nil && len(rec) != len(csvHeader) {
			// Journals are always written in the v2 layout; a shorter row is
			// a torn write, not a legacy file.
			err = fmt.Errorf("%d columns, want %d", len(rec), len(csvHeader))
		}
		if err == nil {
			s, err = parseSample(rec)
		}
		if err != nil {
			if i == len(lines)-2 {
				// Torn last line from an interrupted write; everything
				// before it is intact.
				break
			}
			return "", nil, fmt.Errorf("dataset: journal %s: line %d: %v", path, i+2, err)
		}
		samples[sampleKey{s.ConfigID, s.Nodes, s.PPN, s.Msize}] = s
	}
	return identity, samples, nil
}

// JournalPath returns the progress-journal file paired with a dataset cache
// file.
func JournalPath(cachePath string) string { return cachePath + ".journal" }

// GenerateResumable is Generate with crash/interrupt recovery. Every
// completed measurement is appended to the journal at journalPath; when
// resume is true and the journal matches this exact run (same spec, grids,
// and benchmark options), already-measured configurations are replayed from
// it instead of re-measured. stop (optional) is polled between measurements —
// wire it to a SIGINT flag to checkpoint cleanly; the run then returns
// ErrInterrupted with the journal intact.
//
// Seeds depend only on (dataset, config, instance), so a resumed run
// produces a dataset bit-identical to an uninterrupted one. On success the
// caller should Save the dataset and may delete the journal.
func GenerateResumable(spec Spec, opts bench.Options, journalPath string, resume bool, stop func() bool, progress func(done, total int)) (ds *Dataset, err error) {
	identity := journalIdentity(spec, opts)
	var recorded map[sampleKey]Sample
	if resume {
		if id, samples, jerr := readJournal(journalPath); jerr == nil && id == identity {
			recorded = samples
		}
	}
	var j *journal
	if len(recorded) > 0 {
		j, err = openJournalAppend(journalPath)
	} else {
		recorded = nil
		j, err = createJournal(journalPath, identity)
	}
	if err != nil {
		return nil, err
	}
	// The journal is the crash-recovery record: a failed close means rows
	// may not have reached the OS, so it must surface as an error rather
	// than leave a silently unresumable journal behind.
	defer func() {
		if cerr := j.Close(); cerr != nil && err == nil {
			ds, err = nil, fmt.Errorf("dataset: closing journal %s: %w", journalPath, cerr)
		}
	}()

	reused := 0
	ds, err = generate(spec, opts, progress, genControl{
		recorded: recorded,
		record:   j.record,
		stop:     stop,
		reused:   &reused,
	})
	if reused > 0 {
		obs.Default.Counter("dataset_resumed_samples_total",
			obs.Labels{"dataset": spec.Name}).Add(int64(reused))
	}
	return ds, err
}
