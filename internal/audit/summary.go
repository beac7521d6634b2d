package audit

import (
	"fmt"
	"sort"

	"mpicollpred/internal/obs"
	"mpicollpred/internal/tablefmt"
)

// ModelSummary aggregates one model's served decisions.
type ModelSummary struct {
	Model      string
	Requests   int
	Cached     int
	Fallbacks  int
	ByReason   map[string]int
	ByLabel    map[string]int
	LatencyUs  []float64
	Predicted  []float64
	Generation uint64 // highest generation seen
}

// Summary aggregates a whole audit log.
type Summary struct {
	Records int
	Models  map[string]*ModelSummary
}

// Summarize folds records into per-model aggregates. Order-independent: two
// logs holding the same multiset of records summarize identically.
func Summarize(recs []Record) *Summary {
	s := &Summary{Models: map[string]*ModelSummary{}}
	for _, r := range recs {
		s.Records++
		m := s.Models[r.Model]
		if m == nil {
			m = &ModelSummary{Model: r.Model, ByReason: map[string]int{}, ByLabel: map[string]int{}}
			s.Models[r.Model] = m
		}
		m.Requests++
		if r.Cached {
			m.Cached++
		}
		if r.Fallback {
			m.Fallbacks++
			m.ByReason[r.FallbackReason]++
		}
		m.ByLabel[r.Label]++
		m.LatencyUs = append(m.LatencyUs, float64(r.LatencyUs))
		if r.PredictedSeconds != nil {
			m.Predicted = append(m.Predicted, *r.PredictedSeconds)
		}
		if r.Generation > m.Generation {
			m.Generation = r.Generation
		}
	}
	return s
}

// modelNames returns the summarized model names, sorted.
func (s *Summary) modelNames() []string {
	names := make([]string, 0, len(s.Models))
	for name := range s.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ratio renders a/b as a percentage, "-" when b is zero.
func ratio(a, b int) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
}

// Render formats the summary as byte-stable text: models sorted by name,
// distributions sorted by count descending then label.
func (s *Summary) Render() string {
	t := &tablefmt.Table{
		Title: "Audit summary: served selections per model",
		Headers: []string{"model", "gen", "requests", "cached", "hit%", "fallbacks", "fb%",
			"lat p50 us", "lat p99 us", "pred p50 s"},
	}
	for _, name := range s.modelNames() {
		m := s.Models[name]
		t.AddRow(m.Model, fmt.Sprintf("%d", m.Generation),
			tablefmt.I(m.Requests), tablefmt.I(m.Cached), ratio(m.Cached, m.Requests),
			tablefmt.I(m.Fallbacks), ratio(m.Fallbacks, m.Requests),
			tablefmt.F(obs.Quantile(m.LatencyUs, 0.5), 0), tablefmt.F(obs.Quantile(m.LatencyUs, 0.99), 0),
			tablefmt.G(obs.Quantile(m.Predicted, 0.5)))
	}
	out := fmt.Sprintf("records: %d\n\n%s", s.Records, t.String())

	for _, name := range s.modelNames() {
		m := s.Models[name]
		dist := &tablefmt.Table{
			Title:   fmt.Sprintf("Selection distribution: %s", m.Model),
			Headers: []string{"configuration", "count", "share"},
		}
		for _, kv := range sortedCounts(m.ByLabel) {
			dist.AddRow(kv.k, tablefmt.I(kv.v), ratio(kv.v, m.Requests))
		}
		out += "\n" + dist.String()
		if m.Fallbacks > 0 {
			fb := &tablefmt.Table{
				Title:   fmt.Sprintf("Fallback breakdown: %s", m.Model),
				Headers: []string{"reason", "count", "share"},
			}
			for _, kv := range sortedCounts(m.ByReason) {
				fb.AddRow(kv.k, tablefmt.I(kv.v), ratio(kv.v, m.Requests))
			}
			out += "\n" + fb.String()
		}
	}
	return out
}

// kcount is one (key, count) pair of a distribution.
type kcount struct {
	k string
	v int
}

// sortedCounts orders a count map by descending count, then key — the
// deterministic rendering order for every distribution in a report.
func sortedCounts(m map[string]int) []kcount {
	out := make([]kcount, 0, len(m))
	for k, v := range m {
		out = append(out, kcount{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	return out
}
