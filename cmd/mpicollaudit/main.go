// Command mpicollaudit analyzes the selection audit log written by
// mpicollserve (-audit): it summarizes what was served, replays the log
// through the live drift monitors, and optionally re-measures every unique
// decision in the simulator to compare observed against predicted runtimes.
//
// All three reports are byte-stable for a given log, so CI can diff them.
//
// With -follow, the command instead tails the log like `tail -f`: each
// record is re-emitted as one JSON line the moment it is appended, across
// rotations, until interrupted — the interactive view of the same streaming
// reader the online retraining loop runs on.
//
// Usage:
//
//	mpicollaudit -log audit.jsonl -summary
//	mpicollaudit -log audit.jsonl -drift
//	mpicollaudit -log audit.jsonl -replay -reps 3 -out replay.txt
//	mpicollaudit -log audit.jsonl -follow
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/obs"
)

func main() {
	var (
		logPath = flag.String("log", "audit.jsonl", "audit log to analyze (JSONL, from mpicollserve -audit)")
		summary = flag.Bool("summary", false, "print selection distributions, cache and fallback breakdowns")
		drift   = flag.Bool("drift", false, "replay the log through the serving drift monitors")
		replay  = flag.Bool("replay", false, "re-measure unique decisions in the simulator (observed vs predicted)")
		follow  = flag.Bool("follow", false, "tail the log, printing records as they are appended (Ctrl-C stops)")
		reps    = flag.Int("reps", 2, "replay: simulated repetitions per measurement")
		out     = flag.String("out", "", "write the report here instead of stdout")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprof = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (go tool pprof)")
	)
	flag.Parse()
	if *follow && (*summary || *drift || *replay) {
		fmt.Fprintln(os.Stderr, "mpicollaudit: -follow streams raw records and excludes the batch reports")
		os.Exit(2)
	}
	if !*follow && !*summary && !*drift && !*replay {
		fmt.Fprintln(os.Stderr, "mpicollaudit: pick at least one of -summary, -drift, -replay, -follow")
		os.Exit(2)
	}
	stopProfiles, err := obs.StartProfiles(*cpuprof, *memprof)
	fail(err)
	finish = func() error {
		finish = func() error { return nil }
		return stopProfiles()
	}
	defer func() { fail(finish()) }()
	if *follow {
		runFollow(*logPath)
		return
	}

	recs, err := audit.ReadLog(*logPath)
	fail(err)
	if len(recs) == 0 {
		fail(fmt.Errorf("no records in %s", *logPath))
	}

	var report string
	if *summary {
		report += audit.Summarize(recs).Render()
	}
	if *drift {
		if report != "" {
			report += "\n"
		}
		report += audit.Drift(recs).Render()
	}
	if *replay {
		rep, err := audit.Replay(recs, audit.ReplayOptions{Reps: *reps})
		fail(err)
		if report != "" {
			report += "\n"
		}
		report += rep.Render()
	}

	if *out == "" {
		fmt.Print(report)
		return
	}
	fail(os.WriteFile(*out, []byte(report), 0o644))
	fmt.Fprintf(os.Stderr, "mpicollaudit: report -> %s\n", *out)
}

// runFollow tails the audit log until SIGINT/SIGTERM, emitting one JSON
// line per record. It survives rotations and waits for the file to appear,
// so it can be started before the server.
func runFollow(path string) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	enc := json.NewEncoder(os.Stdout)
	err := audit.Follow(ctx, path, audit.FollowOptions{}, func(rec audit.Record) error {
		return enc.Encode(rec)
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		fail(err)
	}
}

// finish stops the profiles; main installs it, and it disarms itself on its
// first call. fail runs it too, because os.Exit skips deferred calls.
var finish = func() error { return nil }

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpicollaudit: %v\n", err)
		if err := finish(); err != nil {
			fmt.Fprintf(os.Stderr, "mpicollaudit: %v\n", err)
		}
		os.Exit(1)
	}
}
