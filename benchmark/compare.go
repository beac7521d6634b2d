package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"mpicollpred/internal/floats"
)

// loadRecords reads every -out record (*.json) in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", dir)
	}
	return out, nil
}

// series returns the values of one metric over the records of one workload
// and trace mode, keyed by seed.
func series(recs []record, workload, metric string, traced bool) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func values(bySeed map[uint64]float64) []float64 {
	out := make([]float64, 0, len(bySeed))
	for _, v := range bySeed {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// verdict is the judgement of one (workload, end-to-end metric) pairing.
type verdict struct {
	before, after [3]float64 // quartiles
	pairs, wins   int
	change        float64 // relative change of the median, positive = worse
	result        string
}

// judge compares the runs of a parent (before) and a change (after) on one
// metric. Runs pair up by seed. The change improved when it wins at least
// nine tenths of the pairs and the medians differ by more than the parent's
// interquartile distance; it regressed when its median is worse than the
// parent's by more than the bound. When the parent's own spread exceeds the
// bound the pairing is unresolved, unless every run of the change beats
// every run of the parent.
func judge(ms metricSpec, before, after map[uint64]float64) verdict {
	var v verdict
	b, a := values(before), values(after)
	v.before[0], v.before[1], v.before[2] = quartiles(b)
	v.after[0], v.after[1], v.after[2] = quartiles(a)
	sign := 1.0 // +1: lower is better
	if ms.Better == "higher" {
		sign = -1
	}
	for seed, x := range before {
		y, ok := after[seed]
		if !ok {
			continue
		}
		v.pairs++
		if sign*(y-x) < 0 {
			v.wins++
		}
	}
	if !floats.Zero(v.before[1]) {
		v.change = sign * (v.after[1] - v.before[1]) / math.Abs(v.before[1])
	}
	iqr := v.before[2] - v.before[0]
	allBetter := len(a) > 0 && len(b) > 0 && sign*(worst(a, sign)-best(b, sign)) < 0
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && v.change < 0 && math.Abs(v.after[1]-v.before[1]) > iqr:
		v.result = "improved"
	case spread(b) > ms.Bound && !allBetter:
		v.result = "unresolved"
	case v.change > ms.Bound:
		v.result = "regressed"
	default:
		v.result = "no-worse"
	}
	return v
}

// worst and best pick the extreme runs of sorted xs in the metric's
// direction (sign +1: lower is better).
func worst(xs []float64, sign float64) float64 {
	if sign > 0 {
		return xs[len(xs)-1]
	}
	return xs[0]
}

func best(xs []float64, sign float64) float64 {
	if sign > 0 {
		return xs[0]
	}
	return xs[len(xs)-1]
}

// compareMain prints, for every (workload, end-to-end metric), both sides'
// quartiles, the change's win fraction and the verdict. It exits 1 when a
// pairing regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: mpicollperf compare <before-dir> <after-dir>") }
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, before, after, err := loadCompareInputs(fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf compare:", err)
		return 1
	}
	code := 0
	fmt.Printf("%-15s %-17s %-32s %-32s %-7s %s\n", "workload", "metric", "before q1/median/q3", "after q1/median/q3", "wins", "verdict")
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			b := series(before, w.Name, ms.Name, false)
			a := series(after, w.Name, ms.Name, false)
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			v := judge(ms, b, a)
			if v.result == "regressed" {
				code = 1
			}
			fmt.Printf("%-15s %-17s %-32s %-32s %-7s %s (%+.1f%%, bound %.0f%%)\n", w.Name, ms.Name,
				fmt.Sprintf("%.4g/%.4g/%.4g", v.before[0], v.before[1], v.before[2]),
				fmt.Sprintf("%.4g/%.4g/%.4g", v.after[0], v.after[1], v.after[2]),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.result, 100*v.change, 100*ms.Bound)
		}
	}
	return code
}

func loadCompareInputs(beforeDir, afterDir string) (*benchSpec, []record, []record, error) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil, nil, nil, err
	}
	before, err := loadRecords(beforeDir)
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := loadRecords(afterDir)
	if err != nil {
		return nil, nil, nil, err
	}
	return spec, before, after, nil
}

// summary is the median and quartiles of one metric over a set of runs.
type summary struct {
	Runs   int     `json:"runs"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 - q1) / median
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	return summary{Runs: len(xs), Q1: q1, Median: q2, Q3: q3, Spread: spread(xs)}
}

// baselineMain writes the committed perf record: two sets of untraced runs
// summarised per (workload, metric), whether the second set's medians stay
// within each bound of the first's, the traced runs' per-layer medians, and
// the tracing overhead (traced over untraced median operation latency).
func baselineMain(args []string) int {
	fs := flag.NewFlagSet("baseline", flag.ContinueOnError)
	commit := fs.String("commit", "", "revision of the measured program")
	out := fs.String("o", "benchmark/baseline.json", "output file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mpicollperf baseline -commit <rev> [-o file] <set1-dir> <set2-dir> <traced-dir>")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 3 || *commit == "" {
		fs.Usage()
		return 2
	}
	spec, set1, set2, err := loadCompareInputs(fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf baseline:", err)
		return 1
	}
	traced, err := loadRecords(fs.Arg(2))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf baseline:", err)
		return 1
	}
	type agreement struct {
		Set1   float64 `json:"set1_median"`
		Set2   float64 `json:"set2_median"`
		Change float64 `json:"change"` // positive = set 2 worse
		Bound  float64 `json:"bound"`
		Within bool    `json:"within_bound"`
	}
	rec := struct {
		Host struct {
			NumCPU     int    `json:"nproc"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Go         string `json:"go"`
			Commit     string `json:"commit"`
		} `json:"host"`
		Sets          [2]map[string]map[string]summary `json:"sets"`
		Agreement     map[string]map[string]agreement  `json:"agreement"`
		Layers        map[string]map[string]float64    `json:"layers"`
		TraceOverhead map[string]float64               `json:"trace_overhead"`
	}{
		Agreement: map[string]map[string]agreement{}, Layers: map[string]map[string]float64{},
		TraceOverhead: map[string]float64{},
	}
	rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.Go, rec.Host.Commit = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit
	for i, set := range [][]record{set1, set2} {
		rec.Sets[i] = map[string]map[string]summary{}
		for _, w := range spec.Workloads {
			rec.Sets[i][w.Name] = map[string]summary{}
			for _, ms := range spec.EndToEnd {
				rec.Sets[i][w.Name][ms.Name] = summarize(values(series(set, w.Name, ms.Name, false)))
			}
		}
	}
	both := append(append([]record(nil), set1...), set2...)
	for _, w := range spec.Workloads {
		rec.Agreement[w.Name] = map[string]agreement{}
		for _, ms := range spec.EndToEnd {
			v := judge(ms, series(set1, w.Name, ms.Name, false), series(set2, w.Name, ms.Name, false))
			rec.Agreement[w.Name][ms.Name] = agreement{Set1: v.before[1], Set2: v.after[1],
				Change: v.change, Bound: ms.Bound, Within: v.change <= ms.Bound}
		}
		rec.Layers[w.Name] = map[string]float64{}
		for _, ms := range spec.PerLayer {
			rec.Layers[w.Name][ms.Name] = median(values(series(traced, w.Name, ms.Name, true)))
		}
		untraced := median(values(series(both, w.Name, "latency_p50_ms", false)))
		if untraced > 0 {
			rec.TraceOverhead[w.Name] = rec.Layers[w.Name]["trace.op_p50_ms"]/untraced - 1
		}
	}
	if err := writeJSON(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf baseline:", err)
		return 1
	}
	return 0
}
