package main

import (
	"math"
	"sort"
)

// opSample is one measured op: which input it ran, its process CPU time,
// that time scaled to the reference host speed, its wall time, and the
// bytes it allocated.
type opSample struct {
	input          int
	cpu, sec, wall float64
	alloc          float64
}

// hdQuantile is the Harrell-Davis estimate of the p-quantile of xs: a
// weighted mean of all order statistics, with weights from the Beta
// distribution of the p-quantile's rank. Unlike a nearest-rank quantile it
// does not jump when two neighbouring values trade places, which matters
// when a few per-input medians with gaps between them are all there is.
func hdQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 1 {
		if n == 0 {
			return 0
		}
		return s[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := range s {
		cdf := betaCDF(float64(i+1)/float64(n), a, b)
		est += (cdf - prev) * s[i]
		prev = cdf
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b), by
// midpoint integration of the density: plenty accurate for the weights of
// hdQuantile, whose a and b stay small.
func betaCDF(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lbeta := la + lb - lab
	const steps = 4096
	h, s := x/steps, 0.0
	for i := 0; i < steps; i++ {
		t := (float64(i) + 0.5) * h
		s += math.Exp((a-1)*math.Log(t) + (b-1)*math.Log1p(-t) - lbeta)
	}
	return math.Min(s*h, 1)
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) does (its
// default "exclusive" method), so spreads printed here match the ones a
// script computes from the result files.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
