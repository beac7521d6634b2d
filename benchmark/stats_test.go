package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.7, 4.4}, [3]float64{1.35, 3.1, 7.05}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.50, 50, 50},
		{0.99, 99, 1},
		{1, 100, 0},
		{0, 1, 99},
	} {
		v, beyond := percentile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("percentile(1..100, %v) = (%v, %d), want (%v, %d)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(empty) = (%v, %d), want (0, 0)", v, beyond)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	runs := func(base float64, n int) map[uint64]float64 {
		out := map[uint64]float64{}
		for i := 0; i < n; i++ {
			out[uint64(i+1)] = base * (1 + 0.01*float64(i%3))
		}
		return out
	}
	for _, c := range []struct {
		name          string
		before, after map[uint64]float64
		want          string
	}{
		{"same", runs(100, 10), runs(100, 10), "no-worse"},
		{"faster", runs(100, 10), runs(80, 10), "improved"},
		{"slower", runs(100, 10), runs(120, 10), "regressed"},
		{"noisy parent", map[uint64]float64{1: 50, 2: 100, 3: 150, 4: 200}, runs(100, 4), "unresolved"},
	} {
		if got := judge(lower, c.before, c.after).result; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
