// Package floats holds the repository's blessed floating-point comparison
// helpers. The floateq analyzer (DESIGN §8) forbids raw == / != between
// floats in production code; every comparison goes through one of these
// helpers so the tolerance — or the deliberate absence of one — is explicit
// and greppable.
package floats

import "math"

// ZeroEps is the magnitude below which Zero treats a value as zero.
// Feature scales, gains, and rates in this codebase are O(1) or larger;
// anything at 1e-12 is accumulated rounding, not signal.
const ZeroEps = 1e-12

// Zero reports whether x is exactly or negligibly zero (|x| <= ZeroEps).
// Use it for degenerate-scale guards (constant features, vanished
// variances) where dividing by a denormal is as wrong as dividing by zero.
func Zero(x float64) bool { return math.Abs(x) <= ZeroEps }

// Exact reports whether a and b are bit-for-bit the same real value. Only
// use it where exactness is the point: sentinel values that were assigned
// and never computed (a fault factor of exactly 1, a ridge of exactly 0),
// or duplicate detection among copied values (equal sort keys, repeated
// spline knots). Anything that went through arithmetic needs a tolerance
// stated at the call site, or a restatement that avoids the comparison.
func Exact(a, b float64) bool {
	return a == b //mpicollvet:ignore floateq this helper is the audited home of the one exact float comparison
}
