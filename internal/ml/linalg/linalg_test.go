package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"mpicollpred/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestMulVec(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec([]float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v", got)
	}
}

func TestAtAWeighted(t *testing.T) {
	m := New(3, 2)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	w := []float64{1, 2, 3}
	g := m.AtA(w)
	// gram[0][0] = 1*1 + 2*9 + 3*25 = 94
	if g.At(0, 0) != 94 {
		t.Errorf("AtA[0][0] = %v", g.At(0, 0))
	}
	if g.At(0, 1) != g.At(1, 0) {
		t.Error("AtA not symmetric")
	}
	// gram[0][1] = 1*1*2 + 2*3*4 + 3*5*6 = 2+24+90 = 116
	if g.At(0, 1) != 116 {
		t.Errorf("AtA[0][1] = %v", g.At(0, 1))
	}
}

func TestAtV(t *testing.T) {
	m := New(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	got := m.AtV([]float64{1, 1}, nil)
	if got[0] != 4 || got[1] != 6 {
		t.Errorf("AtV = %v", got)
	}
	got = m.AtV([]float64{1, 1}, []float64{2, 0})
	if got[0] != 2 || got[1] != 4 {
		t.Errorf("weighted AtV = %v", got)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{4, 2, 2, 3})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) ||
		!almostEq(l.At(1, 1), math.Sqrt(2), 1e-12) {
		t.Errorf("L = %v", l.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := New(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("expected failure on indefinite matrix")
	}
	b := New(2, 3)
	if _, err := Cholesky(b); err == nil {
		t.Error("expected failure on non-square matrix")
	}
}

func TestSolveRandomSPDQuick(t *testing.T) {
	rng := sim.NewRNG(42)
	f := func(seed8 uint8) bool {
		n := int(seed8%6) + 2
		// Build SPD as BᵀB + I.
		b := New(n, n)
		for i := range b.Data {
			b.Data[i] = rng.Norm()
		}
		a := b.AtA(nil)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.Norm()
		}
		rhs := a.MulVec(xTrue)
		x, err := SolveSPD(a, rhs)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPDWithSemiDefinite(t *testing.T) {
	// Rank-deficient Gram matrix: SolveSPD must still return a solution
	// (minimum-ridge regularized).
	a := New(2, 2)
	copy(a.Data, []float64{1, 1, 1, 1})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Any x with x0+x1 ~= 2 is acceptable.
	if !almostEq(x[0]+x[1], 2, 1e-4) {
		t.Errorf("x = %v", x)
	}
}

// TestFactorOnceSolvesLikeSolveSPD checks that right-hand sides solved
// against one FactorSPD factor equal, bit for bit, a fresh SolveSPD per
// right-hand side: on random SPD matrices, and on the rank-deficient
// matrix above, which factors only after the ridge escalation.
func TestFactorOnceSolvesLikeSolveSPD(t *testing.T) {
	rng := sim.NewRNG(7)
	var mats []*Matrix
	for _, n := range []int{2, 5, 9, 33} {
		b := New(n+3, n)
		for i := range b.Data {
			b.Data[i] = rng.Norm()
		}
		a := b.AtA(nil)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1e-3)
		}
		mats = append(mats, a)
	}
	semi := New(2, 2)
	copy(semi.Data, []float64{1, 1, 1, 1})
	if _, err := Cholesky(semi); err == nil {
		t.Fatal("the rank-deficient case must need the ridge")
	}
	mats = append(mats, semi)
	for _, a := range mats {
		l, err := FactorSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			rhs := make([]float64, a.Rows)
			for i := range rhs {
				rhs[i] = rng.Norm()
			}
			want, err := SolveSPD(a, rhs)
			if err != nil {
				t.Fatal(err)
			}
			got := SolveChol(l, rhs)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d rhs %d: x[%d] = %v from the shared factor, %v from SolveSPD",
						a.Rows, k, i, got[i], want[i])
				}
			}
		}
	}
}
