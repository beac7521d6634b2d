package main

import (
	"math"
	"sort"

	"mpicollpred/internal/floats"
)

// percentile returns the q-quantile of sorted (nearest rank) together with
// the number of samples strictly beyond it, so every reported tail states
// how many observations back it. An empty sample yields (0, 0).
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n - 1 - i
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), because the benchmark's spread rule is stated in those terms. A
// single value is its own quartiles; an empty slice yields zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of xs as a share of its median — the
// run-to-run noise measure the bounds in BENCHMARK.json are judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if floats.Zero(q2) {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
