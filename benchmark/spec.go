package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json mpicollperf reads: the workloads,
// and the metrics with their units, directions and (end-to-end only)
// regression bounds. Units and metric names come from here, so the file is
// the single catalog of what a run prints.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// endToEnd returns the end-to-end metric named name.
func (s *benchSpec) endToEnd(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
