package main

import (
	"fmt"
	"os"
	"time"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/obs"
)

// tracer records spans around the benchmark's calls into the program's
// layers, and the counters those calls return. It exists only in the traced
// run (--trace 1): a nil *tracer is the untraced run, every method on it is
// a no-op, and workload code calls it unconditionally.
//
// All traced work is driven from one goroutine, so spans nest on a stack and
// a span's self time — its duration minus its children's — is exact. Each
// top-level span is also opened as one obs.SpanRing request, its children as
// obs child spans, so the run can be written as Chrome trace JSON.
type tracer struct {
	ring  *obs.SpanRing
	stack []frame
	spans int64
	// timing is set while the workload's timed section runs; tallies[1]
	// collects what happens inside it, tallies[0] everything else (set-up
	// and the untimed decomposition passes).
	timing  bool
	tallies [2]tally
}

type tally struct {
	vals  map[string]float64 // counters published by the workloads
	calls map[string]float64 // spans closed, by name
	busy  map[string]time.Duration
	self  map[string]time.Duration
	top   time.Duration // sum of top-level spans
}

type frame struct {
	name  string
	start time.Time
	child time.Duration
	span  *obs.Span
}

func newTracer() *tracer {
	t := &tracer{ring: obs.NewSpanRing(4096)}
	for i := range t.tallies {
		t.tallies[i] = tally{
			vals: map[string]float64{}, calls: map[string]float64{},
			busy: map[string]time.Duration{}, self: map[string]time.Duration{},
		}
	}
	return t
}

var noEnd = func() {}

// start opens a span and returns the function that ends it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return noEnd
	}
	var sp *obs.Span
	if len(t.stack) == 0 {
		sp = t.ring.StartRequest(fmt.Sprintf("span-%d", t.spans), name)
	} else {
		sp = t.stack[len(t.stack)-1].span.StartChild(name)
	}
	t.spans++
	t.stack = append(t.stack, frame{name: name, start: time.Now(), span: sp})
	return t.end
}

// end closes the innermost open span.
func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	f.span.End()
	ty := t.tally()
	ty.calls[f.name]++
	ty.busy[f.name] += d
	ty.self[f.name] += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	} else {
		ty.top += d
	}
}

func (t *tracer) tally() *tally {
	if t.timing {
		return &t.tallies[1]
	}
	return &t.tallies[0]
}

// setTiming marks the start or end of the timed section.
func (t *tracer) setTiming(on bool) {
	if t != nil {
		t.timing = on
	}
}

// add accumulates a counter.
func (t *tracer) add(key string, v float64) {
	if t != nil {
		t.tally().vals[key] += v
	}
}

// raise keeps the largest value seen for key.
func (t *tracer) raise(key string, v float64) {
	if t == nil {
		return
	}
	ty := t.tally()
	if v > ty.vals[key] {
		ty.vals[key] = v
	}
}

// writeChrome writes the recorded spans (the most recent 4096 top-level
// spans with their children) as Chrome trace JSON.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.ring.WriteChrome(f); err != nil {
		_ = f.Close() // already failing with the write error
		return err
	}
	return f.Close()
}

// layerMetrics derives every per-layer metric from a traced run. Counts made
// inside the timed section are per round, so they do not depend on how many
// rounds fit in the run; counts made outside it (set-up, decomposition
// passes) are as made. Rates divide a count by the busy time of the spans
// that did the work, and shares divide self time inside the timed section
// by the timed wall time. Layers a workload does not exercise report 0.
func layerMetrics(t *tracer, r *run) map[string]float64 {
	out, in := &t.tallies[0], &t.tallies[1]
	rounds := float64(r.rounds)
	timed := r.timed.Seconds()
	total := func(key string) float64 { return out.vals[key] + in.vals[key] }
	count := func(key string) float64 { return out.vals[key] + in.vals[key]/rounds }
	calls := func(span string) float64 { return out.calls[span] + in.calls[span]/rounds }
	busy := func(span string) float64 { return (out.busy[span] + in.busy[span]).Seconds() }
	share := func(span string) float64 { return in.self[span].Seconds() / timed }
	ratio := func(a, b float64) float64 {
		if floats.Zero(b) {
			return 0
		}
		return a / b
	}
	rate := func(n float64, span string) float64 { return ratio(n, busy(span)) }
	allCalls := func(span string) float64 { return out.calls[span] + in.calls[span] }

	m := map[string]float64{
		"mpilib.decide_calls":        calls("mpilib.decide"),
		"mpilib.decide_misses":       count("mpilib.misses"),
		"mpilib.decide_hit_ratio":    ratio(allCalls("mpilib.decide")-total("mpilib.misses"), allCalls("mpilib.decide")),
		"mpilib.decide_share":        share("mpilib.decide"),
		"mpilib.misses_per_s":        rate(total("mpilib.misses"), "mpilib.decide"),
		"coll.programs":              calls("coll.build"),
		"coll.ops_per_s":             rate(total("coll.ops"), "coll.build"),
		"sim.runs":                   calls("sim.run"),
		"sim.events":                 count("sim.events"),
		"sim.events_per_s":           rate(total("sim.events"), "sim.run"),
		"sim.peak_heap_depth":        total("sim.peak_heap_depth"),
		"sim.blocked_ratio":          ratio(total("sim.blocked"), total("sim.p2p_ops")),
		"netmodel.messages":          count("netmodel.messages"),
		"netmodel.bytes":             count("netmodel.bytes"),
		"netmodel.inter_node_ratio":  ratio(total("netmodel.inter_node"), total("netmodel.messages")),
		"netmodel.queue_delay_sim_s": count("netmodel.queue_delay_sim_s"),
		"bench.cells_per_s":          rate(total("bench.cells"), "bench.sweep"),
		"bench.reps":                 count("bench.reps"),
		"bench.sweep_share":          share("bench.sweep"),
		"bench.consumed_sim_s":       count("bench.consumed_sim_s"),
		"dataset.read_s":             busy("dataset.read"),
		"dataset.rows":               count("dataset.rows"),
		"dataset.read_mb_per_s":      rate(total("dataset.bytes")/1e6, "dataset.read"),
		"core.train_share":           share("core.train"),
		"core.models":                count("core.models"),
		"core.select_calls":          0,
		"core.select_share":          0,
		"core.predict_alls_per_s":    rate(allCalls("core.predict_all"), "core.predict_all"),
		"core.fallbacks":             count("core.fallbacks"),
		"eval.instances":             count("eval.instances"),
		"eval.self_share":            share("eval"),
		"snapshot.bytes":             count("snapshot.bytes"),
		"snapshot.encode_mb_per_s":   rate(total("snapshot.bytes")/1e6, "snapshot.encode"),
		"snapshot.decode_mb_per_s":   rate(total("snapshot.bytes")/1e6, "snapshot.decode"),
		"serve.requests":             count("serve.requests"),
		"serve.cache_hit_ratio":      ratio(total("serve.cache_hits"), total("serve.cache_hits")+total("serve.cache_misses")),
		"serve.cache_evictions":      count("serve.cache_evictions"),
		"serve.handler_p50_share":    total("serve.handler_p50_share"),
		"serve.handler_p99_share":    total("serve.handler_p99_share"),
		"serve.p99_over_p50":         total("serve.p99_over_p50"),
		"trace.op_p50_ms":            median(r.ops) * 1e3,
		"trace.unattributed_share":   1 - in.top.Seconds()/timed,
		"trace.spans":                float64(t.spans),
	}
	var fitWall float64
	for _, l := range learners {
		fitWall += total("ml.fit_s." + l)
		m["ml.fits_per_s."+l] = ratio(total("ml.models."+l), total("ml.fit_s."+l))
		sel := "core.select." + l
		m["core.selects_per_s."+l] = rate(allCalls(sel), sel)
		m["core.select_calls"] += calls(sel)
		m["core.select_share"] += share(sel)
	}
	m["core.fit_parallel_ratio"] = ratio(fitWall, busy("core.train"))
	return m
}
