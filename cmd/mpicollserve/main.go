// Command mpicollserve runs the tuning service: it loads model snapshots
// produced by `mpicolltune -save` and answers selection queries over
// HTTP/JSON, with a sharded selection cache, atomic hot reload (SIGHUP or
// POST /v1/reload), and graceful shutdown on SIGINT/SIGTERM.
//
// Three auxiliary modes turn one binary into a whole serving fleet:
//
//   - -router fronts N replicas with health-checked, consistent-hash
//     routing, retries, circuit breakers, hedged requests, and the canary
//     rollout endpoint (POST /fleet/rollout).
//   - -chaos wraps a replica in the deterministic fault injector
//     (seeded delays, 5xx bursts, dropped connections) for resilience
//     drills and CI smoke tests.
//   - -loadgen is the load-generation client used by CI to benchmark a
//     server — or, with a comma-separated -url list, a whole fleet — and
//     write BENCH_serve.json.
//
// With -retrain (requires -audit), the server additionally runs the online
// retraining loop of internal/retrain: it tails its own audit log, replays
// served decisions through the simulator (optionally perturbed by a
// -retrain-drift fault plan), and on sustained observed-vs-predicted error
// retrains the drifted model and deploys the candidate — in place, or via
// the router's canary rollout when -retrain-router is set. The loop's state
// machine is served at /v1/retrain/status.
//
// Usage:
//
//	mpicollserve -models d1-gam.snap,d2-knn.snap -addr :8080
//	mpicollserve -router -replicas http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//	mpicollserve -loadgen -url http://127.0.0.1:8080 -duration 10s -out BENCH_serve.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/dataset"
	"mpicollpred/internal/fault"
	"mpicollpred/internal/fleet"
	"mpicollpred/internal/obs"
	"mpicollpred/internal/retrain"
	"mpicollpred/internal/serve"
)

func main() {
	var (
		models     = flag.String("models", "", "comma-separated model snapshot files to serve")
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		cacheSize  = flag.Int("cache-size", 65536, "selection cache capacity in entries (<= -1 disables)")
		auditPath  = flag.String("audit", "", "append-only JSONL selection audit log (empty disables auditing)")
		auditMax   = flag.Int64("audit-max-bytes", audit.DefaultMaxBytes, "audit log rotation threshold in bytes")
		traceRing  = flag.Int("trace-ring", 0, "recent request traces kept for /debug/traces (0 disables tracing)")
		chaos      = flag.String("chaos", "", `server: seeded HTTP chaos spec, e.g. "delay:prob=0.2,ms=25;err:prob=0.1,code=503" (resilience drills)`)
		chaosSeed  = flag.Uint64("chaos-seed", 1, "server: chaos plan seed")
		drainGrace = flag.Duration("drain-grace", 0, "server: pause between flipping /readyz and closing the listener on SIGTERM, giving routers time to notice")
		verbose    = flag.Bool("v", false, "verbose (debug) logging")
		quiet      = flag.Bool("quiet", false, "suppress informational logging")
		cpuprof    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprof    = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")

		retrainOn    = flag.Bool("retrain", false, "run the online retraining loop over the -audit log (observe -> detect drift -> retrain -> deploy)")
		retrainDrift = flag.String("retrain-drift", "", `retrain: fault plan perturbing observations, e.g. "straggler:node=0,factor=4" (simulated machine drift)`)
		retrainRtr   = flag.String("retrain-router", "", "retrain: fleet router base URL; candidates deploy via canary rollout instead of in-place reload")
		retrainDir   = flag.String("retrain-dir", "results/retrain", "retrain: candidate snapshot output directory")
		retrainCache = flag.String("retrain-cache", "results/cache", "retrain: dataset cache directory")
		retrainScale = flag.String("retrain-scale", "smoke", "retrain: dataset scale for observation and refit grids")
		retrainSLog  = flag.String("retrain-status-log", "", "retrain: JSONL state-transition log (empty disables)")

		router   = flag.Bool("router", false, "run as the fleet router fronting -replicas instead of a server")
		replicas = flag.String("replicas", "", "router: comma-separated replica base URLs")
		probeInt = flag.Duration("probe-interval", 250*time.Millisecond, "router: health-probe period")
		hedge    = flag.Duration("hedge-after", 25*time.Millisecond, "router: hedge /v1/select and /v1/predict after this delay (negative disables)")
		retries  = flag.Int("retries", 0, "router/loadgen: transient-failure retries (0 = default)")

		loadgen  = flag.Bool("loadgen", false, "run as a load-generation client instead of a server")
		urls     = flag.String("url", "http://127.0.0.1:8080", "loadgen: comma-separated server base URLs (several drive a fleet)")
		model    = flag.String("model", "", "loadgen: model name to query (empty works for single-model servers)")
		duration = flag.Duration("duration", 5*time.Second, "loadgen: run length")
		workers  = flag.Int("workers", 8, "loadgen: concurrent client goroutines")
		seed     = flag.Uint64("seed", 1, "loadgen instance-sequence / router jitter seed")
		batch    = flag.Int("batch", 0, "loadgen: POST /v1/batch with this many instances per request (0 = /v1/select)")
		nodesCSV = flag.String("nodes", "", "loadgen: comma-separated node-count pool overriding the default")
		ppnsCSV  = flag.String("ppns", "", "loadgen: comma-separated ppn pool overriding the default")
		msizes   = flag.String("msizes", "", "loadgen: comma-separated message-size pool overriding the default")
		shiftAt  = flag.Int64("shift-at", 0, "loadgen: switch to the -shift-* instance pools after this many requests (0 disables; simulates a workload shift)")
		shiftN   = flag.String("shift-nodes", "", "loadgen: node pool after the shift (default: the pre-shift pool)")
		shiftP   = flag.String("shift-ppns", "", "loadgen: ppn pool after the shift (default: the pre-shift pool)")
		shiftM   = flag.String("shift-msizes", "", "loadgen: message-size pool after the shift (default: the pre-shift pool)")
		out      = flag.String("out", "BENCH_serve.json", "loadgen: report file")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, obs.FlagLevel(*verbose, *quiet))
	if !*loadgen && !*router && *models == "" {
		fmt.Fprintln(os.Stderr, "mpicollserve: -models is required (snapshots from `mpicolltune -save`)")
		os.Exit(2)
	}
	stopProfiles, err := obs.StartProfiles(*cpuprof, *memprof)
	fail(err)
	finish = func() error {
		finish = func() error { return nil }
		return stopProfiles()
	}
	defer func() { fail(finish()) }()

	if *loadgen {
		targets := splitList(*urls)
		for i := range targets {
			targets[i] = strings.TrimRight(targets[i], "/")
		}
		runLoadgen(log, serve.LoadgenOptions{
			URLs: targets, Model: *model,
			Duration: *duration, Workers: *workers, Seed: *seed, Batch: *batch, Retries: *retries,
			Nodes: parseIntPool(*nodesCSV, "-nodes"), PPNs: parseIntPool(*ppnsCSV, "-ppns"),
			Msizes:  parseInt64Pool(*msizes, "-msizes"),
			ShiftAt: *shiftAt, ShiftNodes: parseIntPool(*shiftN, "-shift-nodes"),
			ShiftPPNs: parseIntPool(*shiftP, "-shift-ppns"), ShiftMsizes: parseInt64Pool(*shiftM, "-shift-msizes"),
		}, *out)
		return
	}
	if *router {
		runRouter(log, fleet.Options{
			Replicas:      splitList(*replicas),
			ProbeInterval: *probeInt,
			Retries:       *retries,
			HedgeAfter:    *hedge,
			Seed:          *seed,
			Log:           log,
		}, *addr)
		return
	}

	paths := splitList(*models)

	var auditLog *audit.Logger
	if *auditPath != "" {
		lg, err := audit.NewLogger(*auditPath, audit.LoggerOptions{MaxBytes: *auditMax})
		fail(err)
		auditLog = lg
		log.Infof("auditing selections to %s (rotate at %d bytes)", *auditPath, *auditMax)
	}

	var middleware func(http.Handler) http.Handler
	if *chaos != "" {
		plan, err := fault.ParseChaos(*chaos, *chaosSeed)
		fail(err)
		middleware = plan.Middleware
		log.Infof("chaos injection armed (seed %d): %s", *chaosSeed, *chaos)
	}

	srv, err := serve.New(serve.Options{
		SnapshotPaths: paths,
		CacheSize:     *cacheSize,
		Log:           log,
		Audit:         auditLog,
		TraceRing:     *traceRing,
		Middleware:    middleware,
	})
	fail(err)
	log.Infof("serving models %v (generation %d)", srv.Registry().Names(), srv.Registry().Gen())

	stopRetrain := func() {}
	if *retrainOn {
		if *auditPath == "" {
			fail(fmt.Errorf("-retrain tails the selection audit log; enable it with -audit"))
		}
		stopRetrain = startRetrain(log, srv, retrainConfig{
			auditPath: *auditPath, drift: *retrainDrift, router: *retrainRtr,
			outDir: *retrainDir, cacheDir: *retrainCache, scale: *retrainScale,
			statusLog: *retrainSLog,
		})
	}

	l, err := net.Listen("tcp", *addr)
	fail(err)
	log.Infof("listening on http://%s", l.Addr())

	// SIGHUP hot-reloads the snapshots; SIGINT/SIGTERM drain and exit:
	// readiness flips first so routers stop sending traffic, then (after the
	// optional grace) the listener closes and in-flight requests finish.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				if err := srv.Reload(); err != nil {
					log.Errorf("reload failed (previous models still serving): %v", err)
				} else {
					log.Infof("reloaded models %v (generation %d)", srv.Registry().Names(), srv.Registry().Gen())
				}
				continue
			}
			log.Infof("%s: draining (readyz -> 503) and shutting down", sig)
			stopRetrain()
			srv.BeginDrain()
			if *drainGrace > 0 {
				time.Sleep(*drainGrace)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Shutdown(ctx); err != nil {
				log.Errorf("shutdown: %v", err)
			}
			cancel()
			return
		}
	}()

	fail(srv.Serve(l))
	stopRetrain()
	if auditLog != nil {
		if err := auditLog.Close(); err != nil {
			log.Errorf("closing audit log: %v", err)
		}
	}
	log.Infof("bye")
}

// retrainConfig groups the -retrain-* flag values.
type retrainConfig struct {
	auditPath, drift, router string
	outDir, cacheDir, scale  string
	statusLog                string
}

// startRetrain wires the online retraining loop to the serving process: the
// server is the loop's reloader (and, with -retrain-router, the rollout
// deployer takes over), and its /v1/retrain/status endpoint reads the
// loop's published status. The returned stop function cancels the loop and
// waits for it to exit; it is safe to call more than once.
func startRetrain(log *obs.Logger, srv *serve.Server, cfg retrainConfig) func() {
	opts := retrain.Options{
		AuditPath: cfg.auditPath,
		Reloader:  srv,
		OutDir:    cfg.outDir,
		CacheDir:  cfg.cacheDir,
		Scale:     dataset.Scale(cfg.scale),
	}
	if cfg.drift != "" {
		plan, err := fault.Parse(cfg.drift)
		fail(err)
		opts.Drift = plan
		log.Infof("retrain: observing through drift plan %q", cfg.drift)
	}
	if cfg.router != "" {
		opts.Deployer = &retrain.RolloutDeployer{RouterURL: strings.TrimRight(cfg.router, "/")}
		log.Infof("retrain: deploying candidates via canary rollout at %s", cfg.router)
	}
	var statusFile *os.File
	if cfg.statusLog != "" {
		f, err := os.OpenFile(cfg.statusLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		fail(err)
		statusFile = f
		opts.StatusLog = f
	}
	fail(os.MkdirAll(cfg.outDir, 0o755))

	loop, err := retrain.New(opts)
	fail(err)
	srv.SetRetrainStatus(func() any { return loop.Status() })
	log.Infof("retrain: tailing %s (candidates -> %s)", cfg.auditPath, cfg.outDir)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := loop.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Errorf("retrain: loop stopped: %v", err)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
			if statusFile != nil {
				if err := statusFile.Close(); err != nil {
					log.Errorf("retrain: closing status log: %v", err)
				}
			}
			log.Infof("retrain: loop stopped")
		})
	}
}

// runRouter fronts the replica fleet until SIGINT/SIGTERM.
func runRouter(log *obs.Logger, opts fleet.Options, addr string) {
	rt, err := fleet.New(opts)
	fail(err)
	rt.Start()
	l, err := net.Listen("tcp", addr)
	fail(err)
	log.Infof("fleet router on http://%s over %d replicas %v", l.Addr(), len(opts.Replicas), opts.Replicas)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Infof("%s: draining router and shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := rt.Shutdown(ctx); err != nil {
			log.Errorf("shutdown: %v", err)
		}
		cancel()
	}()

	fail(rt.Serve(l))
	log.Infof("bye")
}

// splitList parses a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseInt64Pool parses a comma-separated loadgen pool override ("" keeps
// the loadgen default).
func parseInt64Pool(s, flagName string) []int64 {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil || v < 1 {
			fail(fmt.Errorf("bad %s entry %q", flagName, part))
		}
		out = append(out, v)
	}
	return out
}

func parseIntPool(s, flagName string) []int {
	var out []int
	for _, v := range parseInt64Pool(s, flagName) {
		out = append(out, int(v))
	}
	return out
}

func runLoadgen(log *obs.Logger, opts serve.LoadgenOptions, out string) {
	log.Infof("loadgen: %d workers against %s for %s", opts.Workers, strings.Join(opts.URLs, ", "), opts.Duration)
	// Ctrl-C ends the run at the next request boundary; the partial report
	// is still aggregated and written before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep, err := serve.Loadgen(ctx, opts)
	if rep.Requests > 0 {
		log.Infof("loadgen: %d requests (%.1f%% cached, %d fallbacks, %d errors, %d retries), %.0f req/s, p50 %.0fus p90 %.0fus p99 %.0fus",
			rep.Requests, 100*rep.CacheHitRatio, rep.Fallbacks, rep.Errors, rep.Retries, rep.QPS,
			rep.LatencyP50Us, rep.LatencyP90Us, rep.LatencyP99Us)
		if rep.BatchSize > 0 {
			log.Infof("loadgen: batches of %d -> %d instances, %.0f instances/s",
				rep.BatchSize, rep.Instances, rep.InstancesPerSec)
		}
	}
	if out != "" {
		if werr := rep.WriteFile(out); werr != nil {
			fail(werr)
		}
		log.Infof("loadgen: report -> %s", out)
	}
	fail(err)
}

// finish stops the profiles; main installs it, and it disarms itself on its
// first call. fail runs it too, because os.Exit skips deferred calls.
var finish = func() error { return nil }

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpicollserve: %v\n", err)
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "mpicollserve: %v\n", err)
		}
		os.Exit(1)
	}
}
