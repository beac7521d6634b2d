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
// Generation shards the measurement grid across GOMAXPROCS workers
// (GOMAXPROCS=1 generates serially). Every cell's noise seed is derived from
// its content and results are committed in grid order, so the caches,
// journals and metrics are byte-identical at any worker count; -benchout
// generates one dataset serially and in parallel, proves the identity with
// a byte compare, and writes the shared par.SelfCheck report
// (BENCH_bench.json in CI).
//
// Usage:
//
//	mpicollbench -dataset d1 -scale mid -cache results/cache
//	mpicollbench -dataset all -scale mid -cache results/cache
//	mpicollbench -dataset d1 -scale smoke -faults "straggler:node=0,factor=4" -cache /tmp/cache
//	mpicollbench -dataset d1 -scale mid -resume -cache results/cache
//	GOMAXPROCS=4 mpicollbench -dataset d3 -scale mid -benchout BENCH_bench.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mpicollpred/internal/bench"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/par"
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
		benchout   = flag.String("benchout", "", "generate serially and in parallel, verify byte-identity, write a speedup report here (single dataset only)")
		validate   = flag.Bool("validate", false, "validate the dataset after load/generate; exit nonzero on bad rows")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		verbose    = flag.Bool("v", false, "verbose (debug) logging")
		metrics    = flag.String("metrics", "", "write a metrics-registry snapshot to this file (.json for JSON)")
		listAll    = flag.Bool("list", false, "list dataset specs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
	)
	flag.Parse()
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

	var names []string
	if *name == "all" {
		for _, s := range specs {
			names = append(names, s.Name)
		}
	} else {
		names = []string{*name}
	}
	if *benchout != "" && *name == "all" {
		log.Errorf("mpicollbench: -benchout needs exactly one -dataset, not 'all'")
		os.Exit(2)
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Errorf("mpicollbench: %v", err)
		os.Exit(1)
	}
	exitCode := 0
	if *benchout != "" {
		rep, err := par.SelfCheck(*benchout, "mpicollbench", benchLeg(*name, sc, plan, *retries, *outlierK))
		if err != nil {
			log.Errorf("mpicollbench: %v", err)
			exitCode = 1
		} else {
			log.Infof("benchout: %v -> %s", rep, *benchout)
		}
	} else {
		// SIGINT/SIGTERM flip a flag the generator polls between
		// measurements, so the journal is always left at a measurement
		// boundary.
		var interrupted atomic.Bool
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigCh
			interrupted.Store(true)
			signal.Stop(sigCh) // a second ^C kills immediately
		}()
		for _, n := range names {
			exitCode = runOne(log, n, sc, *cache, plan, *resume, *maxSamples, *retries, *outlierK, *validate, &interrupted)
			if exitCode != 0 {
				break
			}
		}
	}
	if *metrics != "" {
		if err := obs.Default.DumpFile(*metrics); err != nil {
			log.Errorf("writing metrics: %v", err)
			exitCode = 1
		} else {
			log.Infof("metrics snapshot -> %s", *metrics)
		}
	}
	// os.Exit skips deferred calls, so the profiles are completed here.
	if err := stopProfiles(); err != nil {
		log.Errorf("mpicollbench: writing profiles: %v", err)
		exitCode = max(exitCode, 1)
	}
	os.Exit(exitCode)
}

// runOne loads or (resumably) generates one dataset and reports it. The
// returned code is 0 on success, 130 on a clean interrupt (journal saved),
// 1 on error, 3 on validation failure.
func runOne(log *obs.Logger, name string, sc dataset.Scale, cache string,
	plan *fault.Plan, resume bool, maxSamples, retries int, outlierK float64,
	validate bool, interrupted *atomic.Bool) int {

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
		opts := genOptions(spec, sc, plan, retries, outlierK)
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

// genOptions is the generation setup shared by a run and a self-check leg.
func genOptions(spec dataset.Spec, sc dataset.Scale, plan *fault.Plan, retries int, outlierK float64) bench.Options {
	opts := dataset.DefaultGenOptions(spec, sc)
	opts.Faults = plan
	opts.OutlierRetries = retries
	opts.OutlierK = outlierK
	return opts
}

// benchLeg is the -benchout self-check's leg: generate the dataset, with the
// CSV encoding as the output. Each leg gets its own metrics registry so the
// check does not double-count the default one.
func benchLeg(name string, sc dataset.Scale, plan *fault.Plan, retries int, outlierK float64) func() ([]byte, any, error) {
	return func() ([]byte, any, error) {
		spec, err := dataset.SpecByName(name, sc)
		if err != nil {
			return nil, nil, err
		}
		opts := genOptions(spec, sc, plan, retries, outlierK)
		opts.Metrics = bench.NewMetrics(obs.NewRegistry(), obs.Labels{"dataset": name})
		d, err := dataset.Generate(spec, opts, nil)
		if err != nil {
			return nil, nil, err
		}
		var csv bytes.Buffer
		if err := d.WriteCSV(&csv); err != nil {
			return nil, nil, err
		}
		return csv.Bytes(), map[string]any{"dataset": name, "scale": sc, "samples": len(d.Samples)}, nil
	}
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
