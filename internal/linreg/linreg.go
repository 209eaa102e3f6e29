// Package linreg provides the one-variable ordinary least-squares fit behind
// HARS's power estimator. The paper constructs per-cluster, per-frequency
// linear models P = α·(C_U·U_U) + β from profiled power-sensor data; Fit1D
// performs exactly that fit, and RSquared scores it.
package linreg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate is returned when the input does not determine a unique fit
// (fewer than two samples, or every x equal).
var ErrDegenerate = errors.New("linreg: degenerate system")

// Fit1D fits y ≈ alpha*x + beta by ordinary least squares.
func Fit1D(xs, ys []float64) (alpha, beta float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("linreg: mismatched lengths %d and %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0, 0, ErrDegenerate
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12*(n*sxx+sx*sx+1) {
		return 0, 0, ErrDegenerate
	}
	alpha = (n*sxy - sx*sy) / den
	beta = (sy - alpha*sx) / n
	return alpha, beta, nil
}

// RSquared returns the coefficient of determination of predictions yhat
// against observations y. A perfect fit returns 1; a fit no better than the
// mean returns 0 (negative values indicate a fit worse than the mean).
func RSquared(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) == 0 {
		return math.NaN()
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
