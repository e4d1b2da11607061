package cost

import (
	"math"
	"testing"
)

// Edge-case tests complementing cost_test.go: degenerate tables,
// extrapolation corners, and calibration pathologies.

func TestTableSingleEntry(t *testing.T) {
	tab := Table{Values: []float64{0}}
	if got := tab.Eval(1); got != 0 {
		t.Errorf("single-entry table Eval(1) = %g, want 0 (flat extrapolation)", got)
	}
	if got := tab.Eval(100); got != 0 {
		t.Errorf("single-entry table Eval(100) = %g, want 0", got)
	}
}

func TestTableEmptyEval(t *testing.T) {
	tab := Table{}
	for _, x := range []int{0, 1, 50} {
		if got := tab.Eval(x); got != 0 {
			t.Errorf("empty table Eval(%d) = %g, want 0", x, got)
		}
	}
}

func TestPiecewiseLinearEmptyEval(t *testing.T) {
	p := PiecewiseLinear{}
	if got := p.Eval(7); got != 0 {
		t.Errorf("empty piecewise Eval(7) = %g, want 0", got)
	}
}

func TestScaledZeroFactor(t *testing.T) {
	s := Scaled{F: Affine{Fixed: 3, PerItem: 2}, Factor: 0}
	if got := s.Eval(10); got != 0 {
		t.Errorf("zero-factor Scaled.Eval(10) = %g, want 0", got)
	}
}

func TestSumNested(t *testing.T) {
	inner := Sum{Terms: []Function{Linear{PerItem: 1}, Linear{PerItem: 2}}}
	outer := Sum{Terms: []Function{inner, Linear{PerItem: 3}}}
	if got := outer.Eval(2); got != 12 {
		t.Errorf("nested Sum.Eval(2) = %g, want 12", got)
	}
	if got := outer.Class(); got != LinearClass {
		t.Errorf("nested linear Sum class = %v, want linear", got)
	}
}

func TestCheckClassGeneralAlwaysPassesForValidCosts(t *testing.T) {
	quadratic := Func(func(x int) float64 { return float64(x * x) })
	if err := CheckClass(quadratic, General, 20, 1e-9); err != nil {
		t.Errorf("valid general function rejected: %v", err)
	}
}

func TestFitLinearAllZeroDurations(t *testing.T) {
	fit, err := FitLinear([]Sample{{X: 1, Seconds: 0}, {X: 5, Seconds: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if fit.PerItem != 0 {
		t.Errorf("zero-duration fit slope = %g, want 0", fit.PerItem)
	}
}

func TestFitLinearRejectsNaN(t *testing.T) {
	if _, err := FitLinear([]Sample{{X: 1, Seconds: math.NaN()}}); err == nil {
		t.Error("NaN duration accepted")
	}
	if _, err := FitAffine([]Sample{{X: 1, Seconds: math.Inf(1)}, {X: 2, Seconds: 1}}); err == nil {
		t.Error("Inf duration accepted")
	}
}

func TestFitAffineConstantData(t *testing.T) {
	// Identical durations at different sizes: a pure-overhead model.
	fit, err := FitAffine([]Sample{{X: 10, Seconds: 2}, {X: 1000, Seconds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fit.PerItem < 0 || fit.Fixed < 0 {
		t.Errorf("fit = %+v has negative coefficients", fit)
	}
	if math.Abs(fit.Eval(500)-2) > 0.1 {
		t.Errorf("constant-data fit predicts %g at 500, want ~2", fit.Eval(500))
	}
}
