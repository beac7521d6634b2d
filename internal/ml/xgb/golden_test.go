package xgb

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
// also plants NaN features. The order of ties and NaNs in the presorted
// columns decides the summation order of the split statistics, so these
// sets pin the split search down to the bit.
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

// stateDigest hashes every bit of a fitted ensemble: options, base score
// and each tree's exported node list.
func stateDigest(s State) string {
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	put([]float64{s.Opts.Eta, s.Opts.Lambda, s.Opts.MinChild, s.Opts.TweedieRho, s.Base})
	put([]int64{int64(s.Opts.Rounds), int64(s.Opts.MaxDepth), int64(len(s.Trees))})
	h.Write([]byte(s.Opts.Objective))
	for _, nodes := range s.Trees {
		put(int64(len(nodes)))
		put(nodes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenStateDigests pins the exact fitted state of the tree kernels:
// any change to split search, partitioning, leaf values or the score update
// that moves a single bit of any tree fails here.
func TestGoldenStateDigests(t *testing.T) {
	cases := []struct {
		name    string
		withNaN bool
		obj     Objective
		want    string
	}{
		{"ties-tweedie", false, Tweedie, "ebf1ccc5b40cbb928289ade272fae22a2b14ecedc05be7e117fa74627564f619"},
		{"ties-nan-tweedie", true, Tweedie, "0caf62dd71e8fb7ca6b53e9d9a659e3d34dfe26579b7dba8f4c4515afd142c1e"},
		{"ties-gamma", false, Gamma, "199cb100474fb6a159c860192a1cb9748e62fd7dd344b55161a739136fa6a9e9"},
	}
	for _, c := range cases {
		x, y := dupSurface(400, 11, c.withNaN)
		opts := DefaultOptions()
		opts.Objective = c.obj
		r := NewWith(opts)
		if err := r.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := stateDigest(r.State()); got != c.want {
			t.Errorf("%s: state digest %s, want %s", c.name, got, c.want)
		}
	}
}
