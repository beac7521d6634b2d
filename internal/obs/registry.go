// Package obs is the observability layer of the framework: a dependency-free
// metrics registry (counters, gauges, quantile histograms), a leveled logger,
// a progress/ETA reporter, and a Chrome trace-event exporter for simulator
// timelines.
//
// Every pipeline stage (bench → dataset → train → select) reports into a
// Registry — by convention the package-level Default — and the CLIs dump a
// snapshot with their -metrics flag. The registry is safe for concurrent use:
// counters and gauges are lock-free atomics, histograms take a short mutex
// per observation.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions (collective, machine, library, learner, ...) to a
// metric. The same name with different labels is a distinct time series.
type Labels map[string]string

// labelKey renders labels in sorted order; it is the identity of a series.
func labelKey(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	return b.String()
}

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the counter to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that may move in either direction; Add makes it usable
// as a float accumulator (e.g. consumed simulated seconds).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histGrowth is the geometric bucket growth factor: 2^(1/16). A value is
// reported as the geometric midpoint of its bucket, so quantile estimates
// carry at most ~2.2% relative error — documented and asserted by the tests.
var (
	histGrowth   = math.Pow(2, 1.0/16)
	invLogGrowth = 1 / math.Log(histGrowth)
	histHalfStep = math.Sqrt(histGrowth)
)

// Histogram aggregates non-negative observations (typically seconds) into
// exponential buckets and serves quantile snapshots. Observations <= 0 land
// in a dedicated zero bucket.
type Histogram struct {
	mu      sync.Mutex
	buckets map[int32]uint64
	zero    uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 || math.IsNaN(v) {
		h.zero++
	} else {
		b := int32(math.Floor(math.Log(v) * invLogGrowth))
		if h.buckets == nil {
			h.buckets = make(map[int32]uint64, 32)
		}
		h.buckets[b]++
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the q-quantile (0 <= q <= 1) with the bucket-resolution
// error documented on histGrowth. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count-1)
	cum := float64(h.zero)
	if cum > rank {
		return 0
	}
	keys := make([]int32, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		cum += float64(h.buckets[k])
		if cum > rank {
			// Geometric midpoint of bucket [g^k, g^(k+1)).
			v := math.Exp(float64(k)/invLogGrowth) * histHalfStep
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// snapshotLocked assumes h.mu is held.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	s.P10 = h.quantileLocked(0.10)
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	s.Quantiles = []QuantileValue{
		{Q: "p10", V: s.P10}, {Q: "p50", V: s.P50}, {Q: "p90", V: s.P90}, {Q: "p99", V: s.P99},
	}
	return s
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	hists    map[string]*histEntry
}

type counterEntry struct {
	name   string
	labels Labels
	c      Counter
}
type gaugeEntry struct {
	name   string
	labels Labels
	g      Gauge
}
type histEntry struct {
	name   string
	labels Labels
	h      Histogram
}

// Default is the process-wide registry the pipeline stages report into.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*counterEntry{},
		gauges:   map[string]*gaugeEntry{},
		hists:    map[string]*histEntry{},
	}
}

func seriesKey(name string, labels Labels) string { return name + "{" + labelKey(labels) + "}" }

func copyLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter returns (creating on first use) the counter series (name, labels).
func (r *Registry) Counter(name string, labels Labels) *Counter {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.counters[key]
	r.mu.RUnlock()
	if ok {
		return &e.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.counters[key]; !ok {
		e = &counterEntry{name: name, labels: copyLabels(labels)}
		r.counters[key] = e
	}
	return &e.c
}

// Gauge returns (creating on first use) the gauge series (name, labels).
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.gauges[key]
	r.mu.RUnlock()
	if ok {
		return &e.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.gauges[key]; !ok {
		e = &gaugeEntry{name: name, labels: copyLabels(labels)}
		r.gauges[key] = e
	}
	return &e.g
}

// Histogram returns (creating on first use) the histogram series.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return &e.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.hists[key]; !ok {
		e = &histEntry{name: name, labels: copyLabels(labels)}
		r.hists[key] = e
	}
	return &e.h
}

// CounterSnapshot is one counter series in a Snapshot.
type CounterSnapshot struct {
	Name   string `json:"name"`
	Labels Labels `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// GaugeSnapshot is one gauge series in a Snapshot.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// QuantileValue is one labeled quantile of a histogram snapshot: Q is the
// label ("p10", "p50", ...), V the estimate. Exported as an ordered array —
// never a map — so the JSON schema is stable byte for byte.
type QuantileValue struct {
	Q string  `json:"q"`
	V float64 `json:"v"`
}

// HistogramSnapshot summarizes one histogram series. The flat P10..P99
// fields remain for existing readers; Quantiles carries the same estimates
// with explicit labels, ascending, for schema-driven consumers.
type HistogramSnapshot struct {
	Name      string          `json:"name,omitempty"`
	Labels    Labels          `json:"labels,omitempty"`
	Count     uint64          `json:"count"`
	Sum       float64         `json:"sum"`
	Min       float64         `json:"min"`
	Max       float64         `json:"max"`
	P10       float64         `json:"p10"`
	P50       float64         `json:"p50"`
	P90       float64         `json:"p90"`
	P99       float64         `json:"p99"`
	Quantiles []QuantileValue `json:"quantiles,omitempty"`
}

// Snapshot is a point-in-time copy of every series, ordered deterministically
// by (name, labels).
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make([]*counterEntry, 0, len(r.counters))
	for _, e := range r.counters {
		counters = append(counters, e)
	}
	gauges := make([]*gaugeEntry, 0, len(r.gauges))
	for _, e := range r.gauges {
		gauges = append(gauges, e)
	}
	hists := make([]*histEntry, 0, len(r.hists))
	for _, e := range r.hists {
		hists = append(hists, e)
	}
	r.mu.RUnlock()

	var s Snapshot
	for _, e := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: e.name, Labels: e.labels, Value: e.c.Value()})
	}
	for _, e := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: e.name, Labels: e.labels, Value: e.g.Value()})
	}
	for _, e := range hists {
		hs := e.h.snapshot()
		hs.Name, hs.Labels = e.name, e.labels
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return seriesKey(s.Counters[i].Name, s.Counters[i].Labels) < seriesKey(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return seriesKey(s.Gauges[i].Name, s.Gauges[i].Labels) < seriesKey(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return seriesKey(s.Histograms[i].Name, s.Histograms[i].Labels) < seriesKey(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the snapshot in a prometheus-like one-line-per-series
// text format.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%s{%s} %d\n", c.Name, labelKey(c.Labels), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%s{%s} %g\n", g.Name, labelKey(g.Labels), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%s{%s} count=%d sum=%g min=%g p10=%g p50=%g p90=%g p99=%g max=%g\n",
			h.Name, labelKey(h.Labels), h.Count, h.Sum, h.Min, h.P10, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the snapshot to path: JSON when the extension is .json,
// text otherwise.
func (r *Registry) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".json" {
		err = r.WriteJSON(f)
	} else {
		err = r.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
