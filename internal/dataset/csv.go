package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/obs"
)

// csvHeader is the on-disk column layout (v2). v1 files lack the last two
// accounting columns and are still readable; see ReadCSV.
var csvHeader = []string{"config_id", "alg_id", "nodes", "ppn", "msize", "time_s", "reps", "consumed_s", "exhausted"}

// csvLegacyCols is the column count of the v1 layout.
const csvLegacyCols = 7

// WriteCSV serializes the dataset. The first record is a comment-like meta
// row carrying the spec identity and the consumed benchmark budget.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{"#meta", d.Spec.Name, d.Spec.Lib, d.Spec.Version, d.Spec.Coll,
		d.Spec.Machine, strconv.FormatFloat(d.Consumed, 'g', -1, 64)}
	if err := cw.Write(meta); err != nil {
		return err
	}
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, s := range d.Samples {
		if err := cw.Write(s.appendFields(row[:0])); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// appendFields renders the sample as its v2 column values.
func (s Sample) appendFields(row []string) []string {
	return append(row,
		strconv.Itoa(s.ConfigID),
		strconv.Itoa(s.AlgID),
		strconv.Itoa(s.Nodes),
		strconv.Itoa(s.PPN),
		strconv.FormatInt(s.Msize, 10),
		strconv.FormatFloat(s.Time, 'g', -1, 64),
		strconv.Itoa(s.Reps),
		strconv.FormatFloat(s.Consumed, 'g', -1, 64),
		strconv.FormatBool(s.Exhausted),
	)
}

// parseSample decodes one data row (v2 or legacy v1 layout) with descriptive
// per-column errors.
func parseSample(rec []string) (Sample, error) {
	if len(rec) != len(csvHeader) && len(rec) != csvLegacyCols {
		return Sample{}, fmt.Errorf("%d columns, want %d (or %d legacy)", len(rec), len(csvHeader), csvLegacyCols)
	}
	var s Sample
	var err error
	if s.ConfigID, err = strconv.Atoi(rec[0]); err != nil {
		return s, fmt.Errorf("bad config_id %q", rec[0])
	}
	if s.AlgID, err = strconv.Atoi(rec[1]); err != nil {
		return s, fmt.Errorf("bad alg_id %q", rec[1])
	}
	if s.Nodes, err = strconv.Atoi(rec[2]); err != nil {
		return s, fmt.Errorf("bad nodes %q", rec[2])
	}
	if s.PPN, err = strconv.Atoi(rec[3]); err != nil {
		return s, fmt.Errorf("bad ppn %q", rec[3])
	}
	if s.Msize, err = strconv.ParseInt(rec[4], 10, 64); err != nil {
		return s, fmt.Errorf("bad msize %q", rec[4])
	}
	if s.Time, err = strconv.ParseFloat(rec[5], 64); err != nil {
		return s, fmt.Errorf("bad time_s %q", rec[5])
	}
	if s.Reps, err = strconv.Atoi(rec[6]); err != nil {
		return s, fmt.Errorf("bad reps %q", rec[6])
	}
	if len(rec) >= len(csvHeader) {
		if s.Consumed, err = strconv.ParseFloat(rec[7], 64); err != nil {
			return s, fmt.Errorf("bad consumed_s %q", rec[7])
		}
		if s.Exhausted, err = strconv.ParseBool(rec[8]); err != nil {
			return s, fmt.Errorf("bad exhausted %q", rec[8])
		}
	} else {
		// v1 rows carry no per-sample accounting; the repetition sum
		// approximates what the measurement consumed.
		s.Consumed = s.Time * float64(s.Reps)
	}
	return s, nil
}

// ReadCSV deserializes a dataset written by WriteCSV. The spec grids
// (Nodes/PPNs/Msizes) are reconstructed from the samples. Malformed input —
// an empty file, wrong column counts, non-numeric fields — yields a
// descriptive error naming the offending line, never a panic or a silently
// empty dataset.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	line := 1
	meta, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty file (no meta row)")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: line %d: reading meta row: %w", line, err)
	}
	if len(meta) < 7 || meta[0] != "#meta" {
		return nil, fmt.Errorf("dataset: line %d: malformed meta row %v", line, meta)
	}
	d := &Dataset{Spec: Spec{Name: meta[1], Lib: meta[2], Version: meta[3], Coll: meta[4], Machine: meta[5]}}
	if d.Consumed, err = strconv.ParseFloat(meta[6], 64); err != nil {
		return nil, fmt.Errorf("dataset: line %d: bad consumed field %q", line, meta[6])
	}
	if math.IsNaN(d.Consumed) || d.Consumed < 0 {
		return nil, fmt.Errorf("dataset: line %d: consumed budget %v out of range", line, d.Consumed)
	}
	line++
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: truncated file (no header row)")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: line %d: reading header: %w", line, err)
	}
	if len(header) != len(csvHeader) && len(header) != csvLegacyCols {
		return nil, fmt.Errorf("dataset: line %d: unexpected header %v", line, header)
	}
	nodesSet := map[int]bool{}
	ppnSet := map[int]bool{}
	msizeSet := map[int64]bool{}
	for {
		line++
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		s, err := parseSample(rec)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		d.Samples = append(d.Samples, s)
		nodesSet[s.Nodes] = true
		ppnSet[s.PPN] = true
		msizeSet[s.Msize] = true
	}
	d.Spec.Nodes = sortedInts(nodesSet)
	d.Spec.PPNs = sortedInts(ppnSet)
	d.Spec.Msizes = sortedInt64s(msizeSet)
	d.buildIndex()
	return d, nil
}

// WriteFile writes the dataset to path atomically: the CSV is serialized to
// path+".tmp" and renamed into place, so an interrupted or crashed run can
// never leave a torn file behind — the cache either holds the previous
// complete dataset or the new one.
func (d *Dataset) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		_ = f.Close() // already failing with the write error
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing with the sync error
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Save writes the dataset to dir/<name>-<scale>.csv (atomically; see
// WriteFile).
func (d *Dataset) Save(dir string, scale Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return d.WriteFile(cachePath(dir, d.Spec.Name, scale))
}

// LoadOrGenerate returns the cached dataset if dir holds one for (name,
// scale); otherwise it generates the dataset with the machine's default
// ReproMPI-style options and caches it. Cached files are validated on load:
// malformed rows are quarantined (dropped and counted in the
// dataset_quarantined_rows_total metric) rather than poisoning training.
func LoadOrGenerate(dir, name string, scale Scale, progress func(done, total int)) (*Dataset, error) {
	spec, err := SpecByName(name, scale)
	if err != nil {
		return nil, err
	}
	path := cachePath(dir, name, scale)
	if f, err := os.Open(path); err == nil {
		defer func() { _ = f.Close() }() // read-only file; the read itself is checked
		d, err := ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("dataset: corrupt cache %s: %w", path, err)
		}
		if rep := d.Quarantine(); len(rep.Bad) > 0 {
			obs.Default.Counter("dataset_quarantined_rows_total",
				obs.Labels{"dataset": name}).Add(int64(len(rep.Bad)))
		}
		return d, nil
	}
	d, err := Generate(spec, DefaultGenOptions(spec, scale), progress)
	if err != nil {
		return nil, err
	}
	if err := d.Save(dir, scale); err != nil {
		return nil, err
	}
	return d, nil
}

// DefaultGenOptions returns the benchmark options LoadOrGenerate uses for a
// spec at a scale: the machine's ReproMPI budget with the scale-appropriate
// repetition cap. CLI front-ends start from this and layer on fault plans or
// outlier handling.
func DefaultGenOptions(spec Spec, scale Scale) bench.Options {
	opts := bench.DefaultOptions(spec.Machine)
	opts.MaxReps = repsForScale(scale)
	return opts
}

// repsForScale bounds the repetition count by scale: the paper's cap of 500
// is a real-hardware robustness measure; in simulation a handful of
// noise-perturbed repetitions yields the same median stability at a
// fraction of the cost.
func repsForScale(scale Scale) int {
	switch scale {
	case ScaleFull:
		return 5
	case ScaleMid:
		return 2
	default:
		return 2
	}
}

func cachePath(dir, name string, scale Scale) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s.csv", name, scale))
}

// CachePath returns the cache file a (name, scale) dataset is stored under
// in dir. tag distinguishes perturbed variants (e.g. fault-injected runs)
// so they never collide with the clean cache; an empty tag is the default
// cache file.
func CachePath(dir, name string, scale Scale, tag string) string {
	if tag == "" {
		return cachePath(dir, name, scale)
	}
	return filepath.Join(dir, fmt.Sprintf("%s-%s-%s.csv", name, scale, tag))
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func sortedInt64s(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
