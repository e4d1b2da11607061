package cost

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLinearEval(t *testing.T) {
	l := Linear{PerItem: 0.5}
	cases := []struct {
		x    int
		want float64
	}{
		{-3, 0}, {0, 0}, {1, 0.5}, {2, 1}, {10, 5}, {1000000, 500000},
	}
	for _, c := range cases {
		if got := l.Eval(c.x); got != c.want {
			t.Errorf("Linear.Eval(%d) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestLinearClass(t *testing.T) {
	if got := (Linear{PerItem: 1}).Class(); got != LinearClass {
		t.Errorf("Linear.Class() = %v, want linear", got)
	}
}

func TestAffineEval(t *testing.T) {
	a := Affine{Fixed: 2, PerItem: 0.25}
	if got := a.Eval(0); got != 0 {
		t.Errorf("Affine.Eval(0) = %g, want 0 (cost of nothing is nothing)", got)
	}
	if got := a.Eval(-1); got != 0 {
		t.Errorf("Affine.Eval(-1) = %g, want 0", got)
	}
	if got := a.Eval(4); got != 3 {
		t.Errorf("Affine.Eval(4) = %g, want 3", got)
	}
}

func TestAffineClassDegeneratesToLinear(t *testing.T) {
	if got := (Affine{Fixed: 0, PerItem: 3}).Class(); got != LinearClass {
		t.Errorf("zero-intercept affine class = %v, want linear", got)
	}
	if got := (Affine{Fixed: 1, PerItem: 3}).Class(); got != AffineClass {
		t.Errorf("affine class = %v, want affine", got)
	}
}

func TestTableEvalInRange(t *testing.T) {
	tab := Table{Values: []float64{0, 1, 3, 6}, Increasing: true}
	for x, want := range tab.Values {
		if got := tab.Eval(x); got != want {
			t.Errorf("Table.Eval(%d) = %g, want %g", x, got, want)
		}
	}
}

func TestTableEvalExtrapolates(t *testing.T) {
	tab := Table{Values: []float64{0, 1, 3}, Increasing: true}
	// Tail slope is 3-1 = 2, so Eval(4) = 3 + 2*2 = 7.
	if got := tab.Eval(4); got != 7 {
		t.Errorf("Table.Eval(4) = %g, want 7", got)
	}
	if got := tab.Eval(2); got != 3 {
		t.Errorf("Table.Eval(2) = %g, want 3", got)
	}
}

func TestTableEvalNeverExtrapolatesDownward(t *testing.T) {
	tab := Table{Values: []float64{0, 5, 4}}
	if got := tab.Eval(10); got < 4 {
		t.Errorf("Table.Eval(10) = %g, extrapolated below the last entry", got)
	}
}

func TestTableValidate(t *testing.T) {
	cases := []struct {
		name    string
		tab     Table
		wantErr bool
	}{
		{"valid", Table{Values: []float64{0, 1, 2}, Increasing: true}, false},
		{"empty", Table{}, true},
		{"nonzero origin", Table{Values: []float64{1, 2}}, true},  //scatterlint:ignore costinvariant invalid on purpose: Validate must reject it
		{"negative entry", Table{Values: []float64{0, -1}}, true}, //scatterlint:ignore costinvariant invalid on purpose: Validate must reject it
		{"nan entry", Table{Values: []float64{0, math.NaN()}}, true},
		{"declared increasing but is not", Table{Values: []float64{0, 2, 1}, Increasing: true}, true},
		{"non-monotone but not declared", Table{Values: []float64{0, 2, 1}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.tab.Validate()
			if (err != nil) != c.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, c.wantErr)
			}
		})
	}
}

func TestPiecewiseLinearEval(t *testing.T) {
	p := PiecewiseLinear{Points: []Breakpoint{{X: 10, Y: 5}, {X: 20, Y: 25}}}
	cases := []struct {
		x    int
		want float64
	}{
		{0, 0},
		{5, 2.5}, // first segment from implicit origin
		{10, 5},  // breakpoint
		{15, 15}, // second segment
		{20, 25}, // breakpoint
		{30, 45}, // extrapolation with last slope 2
		{-1, 0},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("PiecewiseLinear.Eval(%d) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestPiecewiseLinearSinglePoint(t *testing.T) {
	p := PiecewiseLinear{Points: []Breakpoint{{X: 4, Y: 8}}}
	if got := p.Eval(2); got != 4 {
		t.Errorf("Eval(2) = %g, want 4", got)
	}
	if got := p.Eval(8); got != 16 {
		t.Errorf("Eval(8) = %g, want 16 (extrapolation through origin)", got)
	}
}

func TestPiecewiseLinearValidate(t *testing.T) {
	if err := (PiecewiseLinear{}).Validate(); err == nil {
		t.Error("empty piecewise function validated")
	}
	bad := PiecewiseLinear{Points: []Breakpoint{{X: 5, Y: 1}, {X: 5, Y: 2}}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate X validated")
	}
	neg := PiecewiseLinear{Points: []Breakpoint{{X: 5, Y: -1}}} //scatterlint:ignore costinvariant invalid on purpose: Validate must reject it
	if err := neg.Validate(); err == nil {
		t.Error("negative Y validated")
	}
	ok := PiecewiseLinear{Points: []Breakpoint{{X: 5, Y: 1}, {X: 9, Y: 2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid piecewise function rejected: %v", err)
	}
}

func TestPiecewiseLinearClass(t *testing.T) {
	inc := PiecewiseLinear{Points: []Breakpoint{{X: 1, Y: 1}, {X: 2, Y: 2}}}
	if inc.Class() != Increasing {
		t.Error("monotone piecewise function not classified increasing")
	}
	dec := PiecewiseLinear{Points: []Breakpoint{{X: 1, Y: 2}, {X: 2, Y: 1}}}
	if dec.Class() != General {
		t.Error("non-monotone piecewise function classified increasing")
	}
}

func TestSumEvalAndClass(t *testing.T) {
	s := Sum{Terms: []Function{Linear{PerItem: 1}, Affine{Fixed: 2, PerItem: 3}}}
	if got := s.Eval(2); got != 2+2+6 {
		t.Errorf("Sum.Eval(2) = %g, want 10", got)
	}
	if got := s.Class(); got != AffineClass {
		t.Errorf("Sum.Class() = %v, want affine", got)
	}
	gen := Sum{Terms: []Function{Linear{PerItem: 1}, Func(func(x int) float64 { return float64(x * x) })}}
	if got := gen.Class(); got != General {
		t.Errorf("Sum with general term classified %v, want general", got)
	}
	empty := Sum{}
	if got := empty.Eval(5); got != 0 {
		t.Errorf("empty Sum.Eval(5) = %g, want 0", got)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{F: Linear{PerItem: 2}, Factor: 1.5}
	if got := s.Eval(4); got != 12 {
		t.Errorf("Scaled.Eval(4) = %g, want 12", got)
	}
	if got := s.Class(); got != LinearClass {
		t.Errorf("Scaled.Class() = %v, want linear", got)
	}
}

func TestFuncZeroGuard(t *testing.T) {
	f := Func(func(x int) float64 { return 42 })
	if got := f.Eval(0); got != 0 {
		t.Errorf("Func.Eval(0) = %g, want 0", got)
	}
	if got := f.Eval(3); got != 42 {
		t.Errorf("Func.Eval(3) = %g, want 42", got)
	}
}

func TestClassified(t *testing.T) {
	c := Classified{F: Func(func(x int) float64 { return float64(x) }), C: LinearClass}
	if got := ClassOf(c); got != LinearClass {
		t.Errorf("ClassOf(Classified) = %v, want linear", got)
	}
	if got := ClassOf(Func(func(x int) float64 { return 1 })); got != General {
		t.Errorf("ClassOf(raw Func) = %v, want general", got)
	}
}

func TestZero(t *testing.T) {
	for _, x := range []int{0, 1, 1000} {
		if got := Zero.Eval(x); got != 0 {
			t.Errorf("Zero.Eval(%d) = %g, want 0", x, got)
		}
	}
}

func TestCheckNonNegative(t *testing.T) {
	if err := CheckNonNegative(Linear{PerItem: 1}, 50); err != nil {
		t.Errorf("linear function failed non-negativity: %v", err)
	}
	bad := Func(func(x int) float64 { return float64(5 - x) })
	if err := CheckNonNegative(bad, 10); err == nil {
		t.Error("negative-going function passed non-negativity")
	}
}

func TestCheckIncreasing(t *testing.T) {
	if err := CheckIncreasing(Affine{Fixed: 1, PerItem: 2}, 50); err != nil {
		t.Errorf("affine function failed monotonicity: %v", err)
	}
	bumpy := Func(func(x int) float64 { return math.Abs(float64(x - 5)) })
	if err := CheckIncreasing(bumpy, 10); err == nil {
		t.Error("non-monotone function passed monotonicity")
	}
}

func TestCheckClass(t *testing.T) {
	if err := CheckClass(Linear{PerItem: 0.3}, LinearClass, 100, 1e-9); err != nil {
		t.Errorf("linear function failed its class check: %v", err)
	}
	if err := CheckClass(Affine{Fixed: 2, PerItem: 0.3}, AffineClass, 100, 1e-9); err != nil {
		t.Errorf("affine function failed its class check: %v", err)
	}
	if err := CheckClass(Affine{Fixed: 2, PerItem: 0.3}, LinearClass, 100, 1e-9); err == nil {
		t.Error("affine function with intercept passed the linear class check")
	}
	quadratic := Func(func(x int) float64 { return float64(x * x) })
	if err := CheckClass(quadratic, AffineClass, 20, 1e-9); err == nil {
		t.Error("quadratic passed the affine class check")
	}
}

// Property: linear and affine evaluation is exactly additive in the
// per-item coefficient and homogeneous in x.
func TestLinearAdditivityProperty(t *testing.T) {
	f := func(a float64, x uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Abs(math.Mod(a, 1e9))
		l := Linear{PerItem: a}
		return almostEqual(l.Eval(int(x))+l.Eval(int(x)), Linear{PerItem: 2 * a}.Eval(int(x)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sum.Eval distributes over its terms for random affine terms.
func TestSumDistributesProperty(t *testing.T) {
	f := func(c1, a1, c2, a2 float64, x uint8) bool {
		for _, v := range []float64{c1, a1, c2, a2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		f1 := Affine{Fixed: math.Abs(math.Mod(c1, 1e9)), PerItem: math.Abs(math.Mod(a1, 1e9))}
		f2 := Affine{Fixed: math.Abs(math.Mod(c2, 1e9)), PerItem: math.Abs(math.Mod(a2, 1e9))}
		s := Sum{Terms: []Function{f1, f2}}
		return almostEqual(s.Eval(int(x)), f1.Eval(int(x))+f2.Eval(int(x)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLinearRecoversSlope(t *testing.T) {
	truth := Linear{PerItem: 0.009288} // dinadan's beta from Table 1
	var samples []Sample
	for _, x := range []int{100, 500, 1000, 5000, 10000} {
		samples = append(samples, Sample{X: x, Seconds: truth.Eval(x)})
	}
	got, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.PerItem, truth.PerItem, 1e-12) {
		t.Errorf("FitLinear slope = %g, want %g", got.PerItem, truth.PerItem)
	}
}

func TestFitLinearRejectsEmpty(t *testing.T) {
	if _, err := FitLinear(nil); err == nil {
		t.Error("FitLinear(nil) succeeded")
	}
	if _, err := FitLinear([]Sample{{X: 0, Seconds: 1}}); err == nil {
		t.Error("FitLinear with only X=0 samples succeeded")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := 0.004885 // sekhmet's beta
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := 1 + rng.Intn(10000)
		noise := 1 + 0.02*rng.NormFloat64()
		samples = append(samples, Sample{X: x, Seconds: truth * float64(x) * noise})
	}
	got, err := FitLinear(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.PerItem-truth)/truth > 0.01 {
		t.Errorf("FitLinear slope = %g, want %g within 1%%", got.PerItem, truth)
	}
}

func TestFitAffineRecoversCoefficients(t *testing.T) {
	truth := Affine{Fixed: 0.8, PerItem: 1.12e-5} // pellinore-like link with latency
	var samples []Sample
	for _, x := range []int{10, 100, 1000, 10000, 100000} {
		samples = append(samples, Sample{X: x, Seconds: truth.Eval(x)})
	}
	got, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got.Fixed, truth.Fixed, 1e-9) || !almostEqual(got.PerItem, truth.PerItem, 1e-9) {
		t.Errorf("FitAffine = %+v, want %+v", got, truth)
	}
}

func TestFitAffineClampsNegativeIntercept(t *testing.T) {
	// Data through the origin plus noise can produce a tiny negative
	// intercept; the fit must clamp it to keep the model a valid cost.
	samples := []Sample{{X: 1, Seconds: 0.9}, {X: 2, Seconds: 2.1}, {X: 3, Seconds: 3.0}}
	got, err := FitAffine(samples)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fixed < 0 {
		t.Errorf("FitAffine intercept = %g, want >= 0", got.Fixed)
	}
	if got.PerItem <= 0 {
		t.Errorf("FitAffine slope = %g, want > 0", got.PerItem)
	}
}

func TestFitAffineNeedsTwoDistinctX(t *testing.T) {
	samples := []Sample{{X: 5, Seconds: 1}, {X: 5, Seconds: 1.1}}
	if _, err := FitAffine(samples); err == nil {
		t.Error("FitAffine with a single distinct X succeeded")
	}
}

func TestFitResidual(t *testing.T) {
	f := Linear{PerItem: 1}
	samples := []Sample{{X: 1, Seconds: 1}, {X: 2, Seconds: 2}}
	if got := FitResidual(f, samples); got != 0 {
		t.Errorf("FitResidual on exact fit = %g, want 0", got)
	}
	samples = []Sample{{X: 1, Seconds: 2}} // off by 1
	if got := FitResidual(f, samples); !almostEqual(got, 1, 1e-12) {
		t.Errorf("FitResidual = %g, want 1", got)
	}
	if got := FitResidual(f, nil); got != 0 {
		t.Errorf("FitResidual with no samples = %g, want 0", got)
	}
}

// Property: FitAffine on exactly affine data recovers the model for any
// non-negative coefficients.
func TestFitAffineExactProperty(t *testing.T) {
	f := func(c, a float64) bool {
		if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		c, a = math.Abs(math.Mod(c, 1e6)), math.Abs(math.Mod(a, 1e3))
		truth := Affine{Fixed: c, PerItem: a}
		samples := []Sample{
			{X: 1, Seconds: truth.Eval(1)},
			{X: 10, Seconds: truth.Eval(10)},
			{X: 100, Seconds: truth.Eval(100)},
		}
		got, err := FitAffine(samples)
		if err != nil {
			return false
		}
		return almostEqual(got.Fixed, c, 1e-6) && almostEqual(got.PerItem, a, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// CheckClass empirically verifies on 0..n that f behaves according to
// class c: non-negativity for General, monotonicity for Increasing, and
// exact second-difference flatness (within tol) for AffineClass and
// LinearClass. LinearClass additionally requires f(1) to be the exact
// slope of f on [0, n].
func CheckClass(f Function, c Class, n int, tol float64) error {
	if err := CheckNonNegative(f, n); err != nil {
		return err
	}
	if c >= Increasing {
		if err := CheckIncreasing(f, n); err != nil {
			return err
		}
	}
	if c >= AffineClass && n >= 3 {
		// Second differences of an affine function vanish for x >= 1.
		for x := 1; x+2 <= n; x++ {
			d2 := f.Eval(x+2) - 2*f.Eval(x+1) + f.Eval(x)
			if math.Abs(d2) > tol {
				return fmt.Errorf("cost: second difference at %d is %g, not affine within %g", x, d2, tol)
			}
		}
	}
	if c >= LinearClass && n >= 1 {
		slope := f.Eval(1)
		for x := 1; x <= n; x++ {
			want := slope * float64(x)
			if math.Abs(f.Eval(x)-want) > tol*math.Max(1, want) {
				return fmt.Errorf("cost: f(%d) = %g, linear model predicts %g", x, f.Eval(x), want)
			}
		}
	}
	return nil
}

// CheckNonNegative probes f on 0..n and returns an error at the first
// negative, NaN or infinite value, or if f(0) != 0.
func CheckNonNegative(f Function, n int) error {
	if v := f.Eval(0); v != 0 {
		return fmt.Errorf("cost: f(0) = %g, want 0", v)
	}
	for x := 0; x <= n; x++ {
		v := f.Eval(x)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("cost: f(%d) = %g", x, v)
		}
	}
	return nil
}

// CheckIncreasing probes f on 0..n and returns an error at the first
// strict decrease.
func CheckIncreasing(f Function, n int) error {
	prev := f.Eval(0)
	for x := 1; x <= n; x++ {
		v := f.Eval(x)
		if v < prev {
			return fmt.Errorf("cost: f(%d) = %g < f(%d) = %g", x, v, x-1, prev)
		}
		prev = v
	}
	return nil
}
