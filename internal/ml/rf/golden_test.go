package rf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mpicollpred/internal/sim"
)

// dupSurface draws n rows whose features take only a handful of distinct
// values, so nearly every split search scans long runs of ties; withNaN
// also plants NaN features.
func dupSurface(n int, seed uint64, withNaN bool) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := float64(rng.Intn(7))
		b := float64(rng.Intn(4)) * 0.5
		c := float64(int(1) << rng.Intn(12))
		if withNaN && rng.Intn(17) == 0 {
			b = math.NaN()
		}
		x[i] = []float64{a, b, c}
		y[i] = 1e-6 * (1 + a*a/4 + c/64) * rng.LogNormal(0.2)
	}
	return x, y
}

// stateDigest hashes every bit of a fitted forest: options and each tree's
// exported node list.
func stateDigest(s State) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put([]int64{int64(s.Opts.NumTrees), int64(s.Opts.MaxDepth), int64(s.Opts.MinLeaf),
		int64(s.Opts.MTry), int64(s.Opts.Seed), int64(len(s.Trees))})
	for _, nodes := range s.Trees {
		put(int64(len(nodes)))
		put(nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStateDigests pins the exact fitted state of the variance-mode
// tree kernel under bootstrap samples (duplicate rows) and feature
// subsampling.
func TestGoldenStateDigests(t *testing.T) {
	cases := []struct {
		name    string
		withNaN bool
		opts    Options
		want    string
	}{
		{"ties-default", false, DefaultOptions(), "138e328cb827a8e568fe3a1d66a6cee74738f2d0b027e536e47a4a39d27e8a9f"},
		{"ties-nan-default", true, DefaultOptions(), "3c47682032f9b27f16f6f7baad87948c6404781025c1ff9326ec8ee1b2a776ae"},
		{"ties-allfeatures", false, Options{NumTrees: 20, MaxDepth: 8, MinLeaf: 1, MTry: 3, Seed: 5}, "2d520ab2ba52c51119ea938d3f315e4415ce4eb204b8aaecff5990da53d9843b"},
	}
	for _, c := range cases {
		x, y := dupSurface(400, 11, c.withNaN)
		r := NewWith(c.opts)
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stateDigest(r.State()); got != c.want {
			t.Errorf("%s: state digest %s, want %s", c.name, got, c.want)
		}
	}
}
