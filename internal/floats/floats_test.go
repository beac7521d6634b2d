package floats

import (
	"math"
	"testing"
)

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(1e-13) || !Zero(-1e-13) {
		t.Error("Zero must accept exact and negligible zeros")
	}
	if Zero(1e-9) || Zero(1) || Zero(math.NaN()) {
		t.Error("Zero must reject real magnitudes and NaN")
	}
}

func TestExact(t *testing.T) {
	if !Exact(1, 1) || Exact(1, 1.0000001) {
		t.Error("Exact must be plain value equality")
	}
	if Exact(math.NaN(), math.NaN()) {
		t.Error("Exact(NaN, NaN) must be false")
	}
	if !Exact(math.Inf(1), math.Inf(1)) {
		t.Error("equal infinities are exactly equal")
	}
}
