// Command mpicollbench is the benchmark step of the framework: it measures
// every algorithm configuration of a library's collective over the full
// instance grid of one of the paper's datasets (Table II, d1–d8) and caches
// the result as CSV.
//
// The run is crash-safe: every completed measurement is appended to a
// progress journal next to the cache file, SIGINT checkpoints cleanly, and
// -resume continues an interrupted run without re-measuring (seeds depend
// only on the configuration and instance, so a resumed run produces a cache
// byte-identical to an uninterrupted one). -faults injects deterministic
// hardware faults (stragglers, degraded NICs, noise bursts, clock outliers)
// into the simulated machine; fault-perturbed caches are written under a
// fault-specific tag so they never clobber the clean cache.
//
// Generation shards the measurement grid across -benchworkers workers
// (default: GOMAXPROCS). Every cell's noise seed is derived from its content
// and results are committed in grid order, so the caches, journals and
// metrics are byte-identical at any worker count; -benchout generates one
// dataset serially and in parallel, proves the identity with a byte compare,
// and writes the wall-clock speedup report (BENCH_bench.json in CI).
//
// Usage:
//
//	mpicollbench -dataset d1 -scale mid -cache results/cache
//	mpicollbench -dataset all -scale mid -cache results/cache
//	mpicollbench -dataset d1 -scale smoke -faults "straggler:node=0,factor=4" -cache /tmp/cache
//	mpicollbench -dataset d1 -scale mid -resume -cache results/cache
//	mpicollbench -dataset d3 -scale mid -benchworkers 4 -benchout BENCH_bench.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
)

func main() {
	var (
		name       = flag.String("dataset", "all", "dataset to generate (d1..d8, or 'all')")
		scale      = flag.String("scale", "mid", "grid scale: smoke, mid, or full")
		cache      = flag.String("cache", "results/cache", "cache directory for generated datasets")
		faultSpec  = flag.String("faults", "", "fault plan, e.g. 'straggler:node=0,factor=4;noise:sigma=0.3' (see internal/fault)")
		resume     = flag.Bool("resume", false, "resume an interrupted run from its progress journal")
		maxSamples = flag.Int("max-samples", 0, "stop after this many fresh measurements (0 = no limit; for testing resume)")
		retries    = flag.Int("outlier-retries", 0, "re-measurement budget for outlier repetitions (0 = off)")
		outlierK   = flag.Float64("outlier-k", 0, "MAD multiple beyond which a repetition is an outlier (0 = default)")
		workers    = flag.Int("benchworkers", 0, "measurement workers sharding the grid (0 = GOMAXPROCS); never changes results")
		benchout   = flag.String("benchout", "", "generate serially and in parallel, verify byte-identity, write a speedup report here (single dataset only)")
		minSpeedup = flag.Float64("min-speedup", 0, "with -benchout: fail unless the parallel speedup reaches this factor (0 = report only)")
		validate   = flag.Bool("validate", false, "validate the dataset after load/generate; exit nonzero on bad rows")
		quiet      = flag.Bool("q", false, "suppress progress output")
		quiet2     = flag.Bool("quiet", false, "alias for -q")
		verbose    = flag.Bool("v", false, "verbose (debug) logging")
		metrics    = flag.String("metrics", "", "write a metrics-registry snapshot to this file (.json for JSON)")
		listAll    = flag.Bool("list", false, "list dataset specs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
	)
	flag.Parse()
	*quiet = *quiet || *quiet2
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verbose, *quiet))

	sc := dataset.Scale(*scale)
	specs := dataset.Specs(sc)

	if *listAll {
		fmt.Printf("%-4s %-10s %-10s %-12s %6s %5s %8s\n",
			"name", "library", "collective", "machine", "#nodes", "#ppn", "#msizes")
		for _, s := range specs {
			fmt.Printf("%-4s %-10s %-10s %-12s %6d %5d %8d\n",
				s.Name, s.Lib, s.Coll, s.Machine, len(s.Nodes), len(s.PPNs), len(s.Msizes))
		}
		return
	}

	plan, err := fault.Parse(*faultSpec)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		os.Exit(2)
	}

	stopProfile, err := obs.StartCPUProfile(*cpuprofile)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		os.Exit(1)
	}
	stopMemProfile, err := obs.StartMemProfile(*memprofile)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		os.Exit(1)
	}
	// exit completes the profiles, which os.Exit alone would leave empty.
	exit := func(code int) {
		if err := stopProfile(); err != nil {
			log.Errorf("mpicollbench: writing CPU profile: %v", err)
			if code == 0 {
				code = 1
			}
		}
		if err := stopMemProfile(); err != nil {
			log.Errorf("mpicollbench: writing heap profile: %v", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	var names []string
	if *name == "all" {
		for _, s := range specs {
			names = append(names, s.Name)
		}
	} else {
		names = []string{*name}
	}

	if *benchout != "" {
		if *name == "all" {
			log.Errorf("mpicollbench: -benchout needs exactly one -dataset, not 'all'")
			os.Exit(2)
		}
		exit(runBenchSelfCheck(log, *name, sc, plan, *retries, *outlierK,
			*workers, *benchout, *minSpeedup))
	}

	// SIGINT/SIGTERM flip a flag the generator polls between measurements,
	// so the journal is always left at a measurement boundary.
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		interrupted.Store(true)
		signal.Stop(sigCh) // a second ^C kills immediately
	}()

	exitCode := 0
	for _, n := range names {
		code := runOne(log, n, sc, *cache, plan, *resume, *maxSamples, *retries, *outlierK, *workers, *validate, &interrupted)
		if code != 0 {
			exitCode = code
			break
		}
	}
	if *metrics != "" {
		if err := obs.Default.DumpFile(*metrics); err != nil {
			log.Errorf("writing metrics: %v", err)
			exit(1)
		}
		log.Infof("metrics snapshot -> %s", *metrics)
	}
	exit(exitCode)
}

// runOne loads or (resumably) generates one dataset and reports it. The
// returned code is 0 on success, 130 on a clean interrupt (journal saved),
// 1 on error, 3 on validation failure.
func runOne(log *obs.Logger, name string, sc dataset.Scale, cache string,
	plan *fault.Plan, resume bool, maxSamples, retries int, outlierK float64,
	workers int, validate bool, interrupted *atomic.Bool) int {

	start := time.Now()
	spec, err := dataset.SpecByName(name, sc)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	path := dataset.CachePath(cache, name, sc, faultTag(plan))

	var d *dataset.Dataset
	if f, err := os.Open(path); err == nil {
		d, err = dataset.ReadCSV(f)
		_ = f.Close() // read-only file; the read itself was checked
		if err != nil {
			log.Errorf("mpicollbench: corrupt cache %s: %v", path, err)
			return 1
		}
		if rep := d.Quarantine(); len(rep.Bad) > 0 {
			log.Infof("%s: quarantined %d bad cached rows", name, len(rep.Bad))
			obs.Default.Counter("dataset_quarantined_rows_total",
				obs.Labels{"dataset": name}).Add(int64(len(rep.Bad)))
		}
		log.Infof("%s: loaded %d samples from cache", name, len(d.Samples))
	} else {
		opts := dataset.DefaultGenOptions(spec, sc)
		opts.Faults = plan
		opts.OutlierRetries = retries
		opts.OutlierK = outlierK
		opts.Workers = workers

		fresh := 0
		stop := func() bool {
			if interrupted.Load() {
				return true
			}
			fresh++
			return maxSamples > 0 && fresh > maxSamples
		}
		if err := os.MkdirAll(cache, 0o755); err != nil {
			log.Errorf("mpicollbench: %v", err)
			return 1
		}
		journal := dataset.JournalPath(path)
		prog := obs.NewProgress(log, name)
		d, err = dataset.GenerateResumable(spec, opts, journal, resume, stop, prog.Func())
		if errors.Is(err, dataset.ErrInterrupted) {
			prog.Finish()
			log.Infof("%s: interrupted; progress saved to %s — rerun with -resume", name, journal)
			return 130
		}
		if err != nil {
			log.Errorf("mpicollbench: %v", err)
			return 1
		}
		prog.Finish()
		if err := d.WriteFile(path); err != nil {
			log.Errorf("mpicollbench: saving %s: %v", path, err)
			return 1
		}
		os.Remove(journal) // the cache now holds everything
	}

	fmt.Printf("%s: %d samples (%d budget-exhausted), %.1f simulated benchmark seconds, wall %v\n",
		name, len(d.Samples), d.ExhaustedCount(), d.Consumed, time.Since(start).Round(time.Second))

	if validate {
		rep := d.Validate()
		fmt.Printf("%s: validation: %s\n", name, rep)
		if len(rep.Bad) > 0 {
			return 3
		}
	}
	return 0
}

// benchReport is what -benchout writes (BENCH_bench.json in CI).
type benchReport struct {
	Dataset string `json:"dataset"`
	Scale   string `json:"scale"`
	Samples int    `json:"samples"`
	Workers int    `json:"workers"`
	// SerialSeconds and ParallelSeconds are the wall-clock generation times
	// of the two legs; Speedup is their ratio.
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	// CSVIdentical reports whether the two legs produced byte-identical CSV
	// encodings — the determinism guarantee of the sharded sweep.
	CSVIdentical bool `json:"csv_identical"`
}

// runBenchSelfCheck generates one dataset twice — serially, then sharded
// across the requested workers — verifies the two CSV encodings are
// byte-identical, and writes the wall-clock speedup report. A byte mismatch
// is a determinism bug and fails the run; minSpeedup > 0 additionally gates
// on the measured speedup (left off by default so single-core dev containers
// still pass).
func runBenchSelfCheck(log *obs.Logger, name string, sc dataset.Scale,
	plan *fault.Plan, retries int, outlierK float64, workers int,
	out string, minSpeedup float64) int {

	spec, err := dataset.SpecByName(name, sc)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	rep := benchReport{Dataset: name, Scale: string(sc), Workers: workers}
	if rep.Workers <= 0 {
		rep.Workers = runtime.GOMAXPROCS(0)
	}

	gen := func(workers int) (*dataset.Dataset, float64, error) {
		opts := dataset.DefaultGenOptions(spec, sc)
		opts.Faults = plan
		opts.OutlierRetries = retries
		opts.OutlierK = outlierK
		opts.Workers = workers
		// Each leg gets its own metrics registry so the self-check does not
		// double-count the default registry.
		opts.Metrics = bench.NewMetrics(obs.NewRegistry(), obs.Labels{"dataset": name})
		start := time.Now()
		d, err := dataset.Generate(spec, opts, nil)
		return d, time.Since(start).Seconds(), err
	}

	log.Infof("benchout: serial leg (%s/%s, 1 worker)", name, sc)
	serial, serialElapsed, err := gen(1)
	if err != nil {
		log.Errorf("mpicollbench: benchout serial leg: %v", err)
		return 1
	}
	log.Infof("benchout: parallel leg (%d workers)", rep.Workers)
	parallel, parallelElapsed, err := gen(rep.Workers)
	if err != nil {
		log.Errorf("mpicollbench: benchout parallel leg: %v", err)
		return 1
	}

	var sbuf, pbuf bytes.Buffer
	if err := serial.WriteCSV(&sbuf); err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	if err := parallel.WriteCSV(&pbuf); err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	rep.Samples = len(serial.Samples)
	rep.SerialSeconds, rep.ParallelSeconds = serialElapsed, parallelElapsed
	if parallelElapsed > 0 {
		rep.Speedup = serialElapsed / parallelElapsed
	}
	rep.CSVIdentical = bytes.Equal(sbuf.Bytes(), pbuf.Bytes())

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		log.Errorf("mpicollbench: %v", err)
		return 1
	}
	log.Infof("benchout: serial %.3gs, parallel %.3gs at %d workers -> %.2fx, identical=%v -> %s",
		rep.SerialSeconds, rep.ParallelSeconds, rep.Workers, rep.Speedup, rep.CSVIdentical, out)
	if !rep.CSVIdentical {
		log.Errorf("mpicollbench: parallel generation is not byte-identical to serial generation")
		return 1
	}
	if minSpeedup > 0 && rep.Speedup < minSpeedup {
		log.Errorf("mpicollbench: speedup %.2fx below the -min-speedup %.2fx floor", rep.Speedup, minSpeedup)
		return 1
	}
	return 0
}

// faultTag derives the cache-file tag for a fault plan: empty (the clean
// cache) for a nil plan, otherwise a short stable hash of the spec so
// distinct plans land in distinct cache files.
func faultTag(plan *fault.Plan) string {
	if plan == nil || len(plan.Faults) == 0 {
		return ""
	}
	h := fnv.New32a()
	h.Write([]byte(plan.String()))
	return fmt.Sprintf("faults-%08x", h.Sum32())
}
