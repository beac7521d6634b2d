// Package gam implements a generalized additive model in the spirit of the
// paper's mgcv setup: one penalized cubic B-spline smooth per input feature
// (P-splines, Eilers & Marx), Gamma family with log link, fitted by
// penalized IRLS, with the smoothing parameter chosen by GCV from a small
// grid. The Gamma/log-link combination is what makes GAM competitive for
// running times spanning microseconds to seconds.
package gam

import (
	"fmt"
	"math"

	"mpicollpred/internal/floats"
	"mpicollpred/internal/ml/linalg"
)

// The smooths' hyper-parameters are constants, an out-of-the-box setup that
// is never tuned. Snapshots still carry them, in the slots the format has
// always had, and a decoder rejects any other value.
const (
	// NumBasis is the number of B-spline basis functions per feature.
	NumBasis = 8
	// MaxIter bounds the IRLS iterations.
	MaxIter = 25
)

// Lambdas returns the GCV search grid for the smoothing parameter, shared
// across features as a deliberate out-of-the-box choice.
func Lambdas() []float64 { return []float64{0.01, 0.1, 1, 10, 100} }

// Regressor is a fitted GAM.
type Regressor struct {
	lo, hi []float64 // per-feature training range (inputs are clamped)
	active []bool    // false for constant features (no smooth)
	beta   []float64 // intercept followed by per-feature coefficient blocks
	lambda float64   // selected smoothing parameter
	edf    float64   // effective degrees of freedom at the selected lambda
}

// New returns an unfitted GAM.
func New() *Regressor { return &Regressor{} }

// State is the exported fitted-model state, used by the snapshot codec: the
// spline coefficients plus the clamping ranges Predict needs to rebuild the
// exact design row.
type State struct {
	Lo, Hi []float64
	Active []bool
	Beta   []float64
	Lambda float64
	EDF    float64
}

// State exports the fitted model.
func (r *Regressor) State() State {
	return State{Lo: r.lo, Hi: r.hi, Active: r.active,
		Beta: r.beta, Lambda: r.lambda, EDF: r.edf}
}

// FromState rebuilds a fitted model, validating that the coefficient vector
// matches the basis layout implied by NumBasis and the active features.
func FromState(s State) (*Regressor, error) {
	d := len(s.Lo)
	if len(s.Hi) != d || len(s.Active) != d {
		return nil, fmt.Errorf("gam: snapshot ranges disagree: %d lo, %d hi, %d active",
			d, len(s.Hi), len(s.Active))
	}
	cols := 1
	for _, act := range s.Active {
		if act {
			cols += NumBasis
		}
	}
	if len(s.Beta) != cols {
		return nil, fmt.Errorf("gam: snapshot has %d coefficients, layout needs %d", len(s.Beta), cols)
	}
	return &Regressor{lo: s.Lo, hi: s.Hi, active: s.Active,
		beta: s.Beta, lambda: s.Lambda, edf: s.EDF}, nil
}

// Lambda returns the GCV-selected smoothing parameter.
func (r *Regressor) Lambda() float64 { return r.lambda }

// EDF returns the effective degrees of freedom of the selected fit.
func (r *Regressor) EDF() float64 { return r.edf }

// Fit trains the model.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("gam: bad training set (%d rows, %d targets)", len(x), len(y))
	}
	for i, v := range y {
		if !(v > 0) {
			return fmt.Errorf("gam: target %d = %g; the Gamma family needs positive responses", i, v)
		}
	}
	d := len(x[0])
	r.lo = make([]float64, d)
	r.hi = make([]float64, d)
	r.active = make([]bool, d)
	for j := 0; j < d; j++ {
		lo, hi := x[0][j], x[0][j]
		for _, row := range x {
			if row[j] < lo {
				lo = row[j]
			}
			if row[j] > hi {
				hi = row[j]
			}
		}
		r.lo[j], r.hi[j] = lo, hi
		r.active[j] = hi > lo
	}

	design := r.designMatrix(x)
	xtx := design.AtA(nil)
	pen := r.penaltyTemplate()

	logy := make([]float64, len(y))
	for i, v := range y {
		logy[i] = math.Log(v)
	}

	bestGCV := math.Inf(1)
	var bestBeta []float64
	var bestLambda, bestEDF float64
	for _, lambda := range Lambdas() {
		beta, gcv, edf, err := r.fitIRLS(design, xtx, pen, y, logy, lambda)
		if err != nil {
			continue
		}
		if gcv < bestGCV {
			bestGCV, bestBeta, bestLambda, bestEDF = gcv, beta, lambda, edf
		}
	}
	if bestBeta == nil {
		return fmt.Errorf("gam: IRLS failed for every lambda in the grid")
	}
	r.beta = bestBeta
	r.lambda = bestLambda
	r.edf = bestEDF
	return nil
}

// fitIRLS runs penalized IRLS for one smoothing parameter and returns the
// coefficients and the GCV score; xtx is the design's Gram matrix XtX. For
// the Gamma family with log link the IRLS weights are identically 1, so
// each iteration is a penalized least squares on the working response
// z = eta + (y - mu)/mu against the same normal matrix, which is factored
// once.
func (r *Regressor) fitIRLS(design, xtx, pen *linalg.Matrix, y, logy []float64, lambda float64) (beta []float64, gcv, edf float64, err error) {
	n := design.Rows
	cols := design.Cols

	// Penalized normal-matrix: XtX + lambda*pen (+ tiny ridge on smooth
	// blocks, applied inside penaltyTemplate).
	a := linalg.New(cols, cols)
	for i := range a.Data {
		a.Data[i] = xtx.Data[i] + lambda*pen.Data[i]
	}
	l, err := linalg.FactorSPD(a)
	if err != nil {
		return nil, 0, 0, err
	}

	// Start from the log targets: exact for a saturated model and an
	// excellent IRLS warm start in general.
	z := append([]float64(nil), logy...)
	eta := make([]float64, n)
	for iter := 0; iter < MaxIter; iter++ {
		beta = linalg.SolveChol(l, design.AtV(z, nil))
		newEta := design.MulVec(beta)
		shift := 0.0
		for i := range newEta {
			// Clamp to a sane log-seconds range to avoid exp overflow on
			// wild intermediate iterations.
			if newEta[i] > 30 {
				newEta[i] = 30
			}
			if newEta[i] < -40 {
				newEta[i] = -40
			}
			s := math.Abs(newEta[i] - eta[i])
			if s > shift {
				shift = s
			}
		}
		eta = newEta
		if shift < 1e-8 && iter > 0 {
			break
		}
		for i := 0; i < n; i++ {
			mu := math.Exp(eta[i])
			z[i] = eta[i] + (y[i]-mu)/mu
		}
	}

	// GCV on the working scale: n * RSS / (n - edf)^2.
	edf = effectiveDF(l, xtx)
	rss := 0.0
	for i := 0; i < n; i++ {
		dlt := z[i] - eta[i]
		rss += dlt * dlt
	}
	den := float64(n) - edf
	if den < 1 {
		den = 1
	}
	gcv = float64(n) * rss / (den * den)
	return beta, gcv, edf, nil
}

// effectiveDF computes tr((XtX + S)^-1 XtX), the effective degrees of
// freedom of the penalized fit, from the Cholesky factor l of XtX + S.
func effectiveDF(l, xtx *linalg.Matrix) float64 {
	cols := l.Cols
	tr := 0.0
	e := make([]float64, cols)
	for c := 0; c < cols; c++ {
		for i := range e {
			e[i] = xtx.At(i, c)
		}
		tr += linalg.SolveChol(l, e)[c]
	}
	return tr
}

// Predict returns the expected running time for one feature vector.
func (r *Regressor) Predict(x []float64) float64 {
	if r.beta == nil {
		return math.NaN()
	}
	row := r.designRow(x)
	eta := 0.0
	for j, v := range row {
		eta += v * r.beta[j]
	}
	if eta > 30 {
		eta = 30
	}
	return math.Exp(eta)
}

// designMatrix builds [1 | B_1(x_1) | ... | B_d(x_d)].
func (r *Regressor) designMatrix(x [][]float64) *linalg.Matrix {
	cols := 1
	for _, act := range r.active {
		if act {
			cols += NumBasis
		}
	}
	m := linalg.New(len(x), cols)
	for i, row := range x {
		copy(m.Row(i), r.designRow(row))
	}
	return m
}

// designRow evaluates the design row for one input vector.
func (r *Regressor) designRow(x []float64) []float64 {
	cols := 1
	for _, act := range r.active {
		if act {
			cols += NumBasis
		}
	}
	row := make([]float64, cols)
	row[0] = 1
	off := 1
	for j := range r.active {
		if !r.active[j] {
			continue
		}
		v := x[j]
		if v < r.lo[j] {
			v = r.lo[j]
		}
		if v > r.hi[j] {
			v = r.hi[j]
		}
		bsplineBasis(v, r.lo[j], r.hi[j], NumBasis, row[off:off+NumBasis])
		off += NumBasis
	}
	return row
}

// penaltyTemplate assembles the block-diagonal second-difference penalty
// (one block per active feature) plus a tiny ridge on the smooth
// coefficients for identifiability (B-spline bases sum to one, which is
// collinear with the intercept).
func (r *Regressor) penaltyTemplate() *linalg.Matrix {
	nb := NumBasis
	cols := 1
	for _, act := range r.active {
		if act {
			cols += nb
		}
	}
	pen := linalg.New(cols, cols)
	const ridge = 1e-7
	off := 1
	for j := range r.active {
		if !r.active[j] {
			continue
		}
		// D2' D2 for the block: D2 has rows (1, -2, 1).
		for k := 0; k < nb-2; k++ {
			idx := [3]int{off + k, off + k + 1, off + k + 2}
			w := [3]float64{1, -2, 1}
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					pen.Add(idx[a], idx[b], w[a]*w[b])
				}
			}
		}
		for k := 0; k < nb; k++ {
			pen.Add(off+k, off+k, ridge)
		}
		off += nb
	}
	return pen
}

// bsplineBasis evaluates the nb cubic B-spline basis functions on equally
// spaced knots spanning [lo, hi] at position v, writing them into out.
func bsplineBasis(v, lo, hi float64, nb int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	degree := 3
	nseg := nb - degree // number of interior segments
	h := (hi - lo) / float64(nseg)
	// Extended knot vector: t[i] = lo + (i-degree)*h for i = 0..nb+degree.
	knot := func(i int) float64 { return lo + float64(i-degree)*h }
	// Find the segment: v in [t[k], t[k+1]) with degree <= k <= nb-1.
	k := degree + int((v-lo)/h)
	if k > nb-1 {
		k = nb - 1
	}
	if k < degree {
		k = degree
	}
	// Cox-de Boor: iterate degrees, local triangular scheme.
	var nloc [4]float64
	nloc[0] = 1
	for deg := 1; deg <= degree; deg++ {
		saved := 0.0
		for r := 0; r < deg; r++ {
			tr := knot(k + r + 1)
			tl := knot(k + r + 1 - deg)
			var term float64
			if !floats.Exact(tr, tl) { // repeated knots are copied values, equal exactly
				term = nloc[r] / (tr - tl)
			}
			nloc[r] = saved + (tr-v)*term
			saved = (v - tl) * term
		}
		nloc[deg] = saved
	}
	// nloc[r] is N_{k-degree+r, degree}(v).
	for r := 0; r <= degree; r++ {
		idx := k - degree + r
		if idx >= 0 && idx < nb {
			out[idx] = nloc[r]
		}
	}
}
