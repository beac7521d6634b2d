// Command mpicollperf is the repository benchmark. One invocation runs one
// workload of the tuning pipeline — dataset generation, the Table IV
// evaluation, or the tuning service — for a fixed time, checks that
// everything it produced is correct, and prints each metric as a
// `name value unit` line followed by one JSON result line:
//
//	mpicollperf --workload table4_intel --seed 1 --seconds 15 --trace 0 [-out run.json]
//	mpicollperf --workload table4_intel --seed 1 --seconds 15 --trace 1 [-chrome spans.json]
//	mpicollperf compare <before-dir> <after-dir>
//	mpicollperf baseline -commit <rev> -o baseline.json <set1-dir> <set2-dir> <traced-dir>
//
// --trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
// the same work with spans around every call into a layer and prints the
// per-layer metrics instead. The command must run from the repository root:
// its inputs are the committed caches and tables under results/. It exits 1
// when an output is wrong or the run fails, 2 on bad usage.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setups is how many times a run sets its workload up; setup_s is the
// median, so one slow first read of the inputs does not decide it.
const setups = 5

// learners are the paper's three model families, in Table IV row order.
var learners = []string{"knn", "gam", "xgboost"}

// A workload is set up (several times; the last set-up is the one used),
// measured, verified and closed. measure drives the timed section through
// run.runRounds or records its own operations; verify runs after the timed
// section and is not timed. close releases what setup acquired and may be
// called more than once.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	verify(r *run) error
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "generate":
		return &generate{}, nil
	case "table4_intel":
		return &table4{intel: true}, nil
	case "table4_openmpi":
		return &table4{}, nil
	case "serve_select":
		return &serveLoad{endpoint: "select"}, nil
	case "serve_predict":
		return &serveLoad{endpoint: "predict"}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run is one benchmark invocation: its settings, what the timed section
// did, and what verification found.
type run struct {
	seed   uint64
	budget time.Duration
	tr     *tracer // nil unless --trace 1

	setupTimes []float64     // seconds, one per set-up
	ops        []float64     // latency of each timed operation, seconds
	rounds     int           // rounds (or serve phases) completed
	timed      time.Duration // wall time of the timed section
	work       int64         // work items attempted in the timed section
	failed     int64         // work items that failed
	wrong      error         // the first wrong output found
	notes      []string      // digests and sample counts, printed as comments
}

// runRounds runs round repeatedly until the timed section has lasted the
// budget, always finishing the round in progress so every run measures whole
// rounds of identical work. check verifies each round's outputs outside the
// clock; a wrong output is recorded and the run goes on. Like testing.B, it
// collects garbage before each round, so no round pays for its
// predecessor's.
func (r *run) runRounds(round func() (work int64, err error), check func(*run) error) error {
	for r.timed < r.budget {
		runtime.GC()
		r.tr.setTiming(true)
		t0 := time.Now()
		n, err := round()
		d := time.Since(t0)
		r.tr.setTiming(false)
		if err != nil {
			return err
		}
		r.ops = append(r.ops, d.Seconds())
		r.timed += d
		r.work += n
		r.rounds++
		r.fail(check(r))
	}
	return nil
}

// fail records the first wrong output; nil is ignored.
func (r *run) fail(err error) {
	if r.wrong == nil {
		r.wrong = err
	}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out writes: the result plus what produced it, the input of
// the compare and baseline modes.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "baseline":
			os.Exit(baselineMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	t0 := time.Now()
	fs := flag.NewFlagSet("mpicollperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed; 1 uses the committed inputs unchanged")
	seconds := fs.Float64("seconds", 15, "length of the timed section")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	out := fs.String("out", "", "also write the result record to this JSON file")
	chrome := fs.String("chrome", "", "with --trace 1, write the spans as Chrome trace JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf:", err)
		return 1
	}
	if !spec.hasWorkload(*name) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "mpicollperf: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", spec.workloadNames())
		return 2
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf:", err)
		return 2
	}
	defer w.close()
	r := &run{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := execute(w, r, t0); err != nil {
		fmt.Fprintf(os.Stderr, "mpicollperf: %s: %v\n", *name, err)
		return 1
	}
	r.fail(w.verify(r))
	res := result{Correct: r.wrong == nil && r.failed == 0, Attempted: r.work, Failed: r.failed}

	catalog, values := spec.EndToEnd, endToEnd(r)
	if r.tr != nil {
		catalog, values = spec.PerLayer, layerMetrics(r.tr, r)
	}
	res.Metrics, err = fill(catalog, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf:", err)
		return 1
	}
	if r.tr != nil && *chrome != "" {
		if err := r.tr.writeChrome(*chrome); err != nil {
			fmt.Fprintln(os.Stderr, "mpicollperf: writing spans:", err)
			return 1
		}
	}
	report(r, res)
	if *out != "" {
		rec := record{Workload: *name, Seed: *seed, Trace: r.tr != nil, result: res}
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "mpicollperf:", err)
			return 1
		}
	}
	if r.wrong != nil {
		fmt.Fprintf(os.Stderr, "mpicollperf: %s: wrong output: %v\n", *name, r.wrong)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute sets the workload up (setups times untraced, once traced — the
// traced run reports no setup_s), then runs the timed section. Garbage is
// collected between set-ups, so each repeats the first on a clean heap.
func execute(w workload, r *run, t0 time.Time) error {
	n := setups
	if r.tr != nil {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
			t0 = time.Now()
		}
		if err := w.setup(r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupTimes = append(r.setupTimes, time.Since(t0).Seconds())
	}
	if err := w.measure(r); err != nil {
		return err
	}
	if len(r.ops) == 0 {
		return errors.New("the timed section completed no operation")
	}
	return nil
}

// endToEnd computes the untraced run's metrics.
func endToEnd(r *run) map[string]float64 {
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return map[string]float64{
		"setup_s":          median(r.setupTimes),
		"latency_p50_ms":   median(r.ops) * 1e3,
		"throughput_per_s": float64(r.work) / r.timed.Seconds(),
		"peak_rss_mb":      rss,
	}
}

// fill attaches the catalog's units to the computed values; a metric the
// catalog names but the run did not compute (or the reverse) is a bug.
func fill(catalog []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(catalog))
	for _, ms := range catalog {
		v, ok := values[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but not computed", ms.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", ms.Name, v)
		}
		out[ms.Name] = metric{Value: v, Unit: ms.Unit}
	}
	if len(values) != len(out) {
		return nil, fmt.Errorf("computed %d metrics, BENCHMARK.json lists %d", len(values), len(out))
	}
	return out, nil
}

// report writes the notes, every metric as `name value unit`, and the JSON
// result as the last line.
func report(r *run, res result) {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %v %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf: encoding result:", err)
		return
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
