package serve

import (
	"math"
	"sort"
	"sync"
	"time"

	"mpicollpred/internal/audit"
	"mpicollpred/internal/obs"
)

// Telemetry thresholds and window sizes. The fallback/envelope monitors use
// the same warn/breach rates as mpicollaudit's offline drift report, so the
// live server and the log replay agree on what "drifting" means.
const (
	// telemetryPredWindow is the per-model rolling window of served
	// predictions the streaming quantiles cover.
	telemetryPredWindow = 512
	// telemetrySLOWindow is the request window of the SLO burn monitors.
	telemetrySLOWindow = 512
	// latencySLO is the per-request latency objective.
	latencySLO = 100 * time.Millisecond
	// sloAvailabilityObjective is the availability SLO (non-5xx fraction).
	sloAvailabilityObjective = 0.999
	// sloLatencyObjective is the latency SLO (fraction under latencySLO).
	sloLatencyObjective = 0.99
)

// modelTelemetry is one model's live monitors.
type modelTelemetry struct {
	pred     *obs.QuantileWindow
	monitors audit.FallbackMonitors
	requests uint64
	cached   uint64
}

// Telemetry watches served decisions for drift and requests for SLO burn.
// All monitors are event-driven (obs/monitor.go), so a seeded load produces
// bit-identical telemetry run after run.
type Telemetry struct {
	mu           sync.Mutex
	models       map[string]*modelTelemetry
	availability *obs.BurnRate
	latency      *obs.BurnRate
}

func newTelemetry() *Telemetry {
	return &Telemetry{
		models:       map[string]*modelTelemetry{},
		availability: obs.NewBurnRate(sloAvailabilityObjective, telemetrySLOWindow),
		latency:      obs.NewBurnRate(sloLatencyObjective, telemetrySLOWindow),
	}
}

func (t *Telemetry) model(name string) *modelTelemetry {
	t.mu.Lock()
	defer t.mu.Unlock()
	mt := t.models[name]
	if mt == nil {
		mt = &modelTelemetry{
			pred:     obs.NewQuantileWindow(telemetryPredWindow),
			monitors: audit.NewFallbackMonitors(),
		}
		t.models[name] = mt
	}
	return mt
}

// ObserveDecision folds one served decision into the model's monitors.
func (t *Telemetry) ObserveDecision(model string, d Decision) {
	mt := t.model(model)
	t.mu.Lock()
	mt.requests++
	if d.Cached {
		mt.cached++
	}
	t.mu.Unlock()
	mt.monitors.Observe(d.Fallback, d.FallbackReason)
	if d.PredictedSeconds != nil {
		mt.pred.Observe(*d.PredictedSeconds)
	}
}

// ObserveRequest folds one HTTP outcome into the SLO burn monitors.
func (t *Telemetry) ObserveRequest(code int, elapsed time.Duration) {
	t.availability.Observe(code < 500)
	t.latency.Observe(elapsed <= latencySLO)
}

// jsonFloat boxes v for JSON, nil when NaN (encoding/json rejects NaN).
func jsonFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// TelemetryQuantile is one labelled quantile of a model's prediction window.
type TelemetryQuantile struct {
	Q string   `json:"q"`
	V *float64 `json:"v"`
}

// ModelTelemetrySnapshot is one model's entry in /v1/telemetry.
type ModelTelemetrySnapshot struct {
	Model          string              `json:"model"`
	Requests       uint64              `json:"requests"`
	Cached         uint64              `json:"cached"`
	WindowLen      int                 `json:"pred_window_len"`
	PredQuantiles  []TelemetryQuantile `json:"pred_quantiles"`
	FallbackRate   float64             `json:"fallback_rate"`
	FallbackLevel  string              `json:"fallback_level"`
	EnvelopeRate   float64             `json:"envelope_rate"`
	EnvelopeLevel  string              `json:"envelope_level"`
	FallbackEvents uint64              `json:"fallback_events"`
	EnvelopeEvents uint64              `json:"envelope_events"`
}

// BurnSnapshot is one SLO burn monitor's state.
type BurnSnapshot struct {
	Objective float64 `json:"objective"`
	Burn      float64 `json:"burn"`
	Level     string  `json:"level"`
	Good      uint64  `json:"good"`
	Bad       uint64  `json:"bad"`
}

// TelemetrySnapshot is the /v1/telemetry payload: models sorted by name,
// quantiles in fixed label order — one stable schema.
type TelemetrySnapshot struct {
	Models            []ModelTelemetrySnapshot `json:"models"`
	Availability      BurnSnapshot             `json:"availability"`
	Latency           BurnSnapshot             `json:"latency"`
	SLOLatencySeconds float64                  `json:"latency_slo_seconds"`
	TracesStored      int                      `json:"traces_stored"`
	TracesTotal       uint64                   `json:"traces_total"`
}

func burnSnapshot(b *obs.BurnRate) BurnSnapshot {
	good, bad := b.Totals()
	return BurnSnapshot{Objective: b.Objective(), Burn: b.Burn(),
		Level: b.Level().String(), Good: good, Bad: bad}
}

// Snapshot captures the current telemetry state.
func (t *Telemetry) Snapshot(ring *obs.SpanRing) TelemetrySnapshot {
	t.mu.Lock()
	names := make([]string, 0, len(t.models))
	for name := range t.models {
		names = append(names, name)
	}
	sort.Strings(names)
	mts := make([]*modelTelemetry, len(names))
	counts := make([][2]uint64, len(names))
	for i, name := range names {
		mts[i] = t.models[name]
		counts[i] = [2]uint64{t.models[name].requests, t.models[name].cached}
	}
	t.mu.Unlock()

	snap := TelemetrySnapshot{
		Models:            []ModelTelemetrySnapshot{},
		Availability:      burnSnapshot(t.availability),
		Latency:           burnSnapshot(t.latency),
		SLOLatencySeconds: latencySLO.Seconds(),
	}
	snap.TracesStored, snap.TracesTotal = ring.Stats()
	for i, name := range names {
		mt := mts[i]
		_, fbEvents, _ := mt.monitors.Fallback.Stats()
		_, envEvents, _ := mt.monitors.Envelope.Stats()
		ms := ModelTelemetrySnapshot{
			Model: name, Requests: counts[i][0], Cached: counts[i][1],
			WindowLen:      mt.pred.Len(),
			FallbackRate:   mt.monitors.Fallback.Rate(),
			FallbackLevel:  mt.monitors.Fallback.Level().String(),
			EnvelopeRate:   mt.monitors.Envelope.Rate(),
			EnvelopeLevel:  mt.monitors.Envelope.Level().String(),
			FallbackEvents: fbEvents,
			EnvelopeEvents: envEvents,
		}
		for _, q := range []struct {
			label string
			q     float64
		}{{"p10", 0.10}, {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
			ms.PredQuantiles = append(ms.PredQuantiles,
				TelemetryQuantile{Q: q.label, V: jsonFloat(mt.pred.Quantile(q.q))})
		}
		snap.Models = append(snap.Models, ms)
	}
	return snap
}

// mirror publishes the monitor states into the metrics registry so one
// /metrics scrape carries drift and SLO health alongside the HTTP counters.
// Levels are exported numerically (ok=0 warn=1 breach=2).
func (t *Telemetry) mirror(metrics *obs.Registry, ring *obs.SpanRing) {
	snap := t.Snapshot(ring)
	for _, m := range snap.Models {
		labels := obs.Labels{"model": m.Model}
		metrics.Gauge("serve_model_fallback_rate", labels).Set(m.FallbackRate)
		metrics.Gauge("serve_model_fallback_level", labels).Set(levelValue(m.FallbackLevel))
		metrics.Gauge("serve_model_envelope_rate", labels).Set(m.EnvelopeRate)
		metrics.Gauge("serve_model_envelope_level", labels).Set(levelValue(m.EnvelopeLevel))
		for _, q := range m.PredQuantiles {
			if q.V != nil {
				metrics.Gauge("serve_model_pred_seconds", obs.Labels{"model": m.Model, "q": q.Q}).Set(*q.V)
			}
		}
	}
	metrics.Gauge("serve_slo_availability_burn", nil).Set(snap.Availability.Burn)
	metrics.Gauge("serve_slo_availability_level", nil).Set(levelValue(snap.Availability.Level))
	metrics.Gauge("serve_slo_latency_burn", nil).Set(snap.Latency.Burn)
	metrics.Gauge("serve_slo_latency_level", nil).Set(levelValue(snap.Latency.Level))
	metrics.Gauge("serve_traces_stored", nil).Set(float64(snap.TracesStored))
	metrics.Gauge("serve_traces_total", nil).Set(float64(snap.TracesTotal))
}

func levelValue(level string) float64 {
	switch level {
	case "warn":
		return 1
	case "breach":
		return 2
	default:
		return 0
	}
}
