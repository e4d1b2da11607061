package cost

import (
	"errors"
	"fmt"
	"math"
)

// Sample is one calibration measurement: the observed cost of X items.
type Sample struct {
	// X is the number of items measured.
	X int
	// Seconds is the observed duration.
	Seconds float64
}

// FitLinear fits the model a*x to the samples by least squares through
// the origin and returns the resulting Linear function. At least one
// sample with X > 0 is required.
//
// This is how the paper's Table 1 constants are produced: "The values
// come from a series of benchmarks we performed on our application."
func FitLinear(samples []Sample) (Linear, error) {
	var sxx, sxy float64
	usable := 0
	for _, s := range samples {
		if s.X <= 0 {
			continue
		}
		if math.IsNaN(s.Seconds) || math.IsInf(s.Seconds, 0) {
			return Linear{}, fmt.Errorf("cost: sample (%d, %g) is not finite", s.X, s.Seconds)
		}
		x := float64(s.X)
		sxx += x * x
		sxy += x * s.Seconds
		usable++
	}
	if usable == 0 {
		return Linear{}, errors.New("cost: no usable samples (need X > 0)")
	}
	slope := sxy / sxx
	if slope < 0 {
		slope = 0
	}
	return Linear{PerItem: slope}, nil
}

// FitAffine fits the model c + a*x to the samples by ordinary least
// squares and clamps both coefficients to be non-negative (re-fitting
// the other coefficient when one clamps), so the result is a valid
// non-negative increasing cost function. At least two samples with
// distinct positive X are required.
func FitAffine(samples []Sample) (Affine, error) {
	var n, sx, sy, sxx, sxy float64
	distinct := map[int]bool{}
	for _, s := range samples {
		if s.X <= 0 {
			continue
		}
		if math.IsNaN(s.Seconds) || math.IsInf(s.Seconds, 0) {
			return Affine{}, fmt.Errorf("cost: sample (%d, %g) is not finite", s.X, s.Seconds)
		}
		x := float64(s.X)
		n++
		sx += x
		sy += s.Seconds
		sxx += x * x
		sxy += x * s.Seconds
		distinct[s.X] = true
	}
	if len(distinct) < 2 {
		return Affine{}, errors.New("cost: need samples at two distinct positive item counts")
	}
	det := n*sxx - sx*sx
	slope := (n*sxy - sx*sy) / det
	intercept := (sy*sxx - sx*sxy) / det
	if intercept < 0 {
		// Clamp the intercept and re-fit the slope through the origin.
		intercept = 0
		slope = sxy / sxx
	}
	if slope < 0 {
		// Degenerate decreasing data: fall back to a constant model.
		slope = 0
		intercept = sy / n
	}
	return Affine{Fixed: intercept, PerItem: slope}, nil
}

// FitResidual reports the root-mean-square residual of f against the
// samples, a goodness-of-fit measure for calibration campaigns.
func FitResidual(f Function, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var ss float64
	for _, s := range samples {
		d := f.Eval(s.X) - s.Seconds
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)))
}
