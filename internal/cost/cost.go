// Package cost defines the communication and computation cost models used
// by the scatter load-balancing algorithms.
//
// The paper characterizes each processor Pi by two functions:
//
//	Tcomm(i, x): the time for Pi to receive x data items from the root,
//	Tcomp(i, x): the time for Pi to process x data items.
//
// The algorithms place different requirements on these functions:
//
//   - Algorithm 1 (basic dynamic program) only needs them to be
//     non-negative and null at x = 0.
//   - Algorithm 2 (optimized dynamic program) additionally needs them to
//     be increasing in x.
//   - The guaranteed heuristic needs them to be affine in x.
//   - The closed-form solver of Section 4 needs them to be linear in x.
//
// This package provides concrete implementations for each class plus
// combinators, property checks, and calibration helpers that fit an
// affine model to measured samples.
package cost

import (
	"errors"
	"fmt"
	"math"
)

// Function is a cost function mapping a number of data items to a
// duration in seconds. Implementations must return 0 for x <= 0 and a
// non-negative, finite value for x > 0.
type Function interface {
	// Eval returns the cost, in seconds, of x data items.
	Eval(x int) float64
}

// Class describes the analytic class of a cost function, from the most
// general to the most specific. More specific classes enable faster
// algorithms (see the package comment).
type Class int

const (
	// General marks a function only known to be non-negative.
	General Class = iota
	// Increasing marks a function known to be non-decreasing in x.
	Increasing
	// AffineClass marks a function of the form c + a*x (c, a >= 0).
	AffineClass
	// LinearClass marks a function of the form a*x (a >= 0).
	LinearClass
)

// String returns the lowercase name of the class.
func (c Class) String() string {
	switch c {
	case General:
		return "general"
	case Increasing:
		return "increasing"
	case AffineClass:
		return "affine"
	case LinearClass:
		return "linear"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classifier is implemented by cost functions that know their own
// analytic class. Functions that do not implement it are treated as
// General.
type Classifier interface {
	Class() Class
}

// ClassOf reports the analytic class of f, defaulting to General when f
// does not implement Classifier.
func ClassOf(f Function) Class {
	if c, ok := f.(Classifier); ok {
		return c.Class()
	}
	return General
}

// Linear is the cost function a*x used throughout Section 4 of the
// paper, where the constant is called alpha (communication) or beta
// (computation), expressed in seconds per item.
type Linear struct {
	// PerItem is the cost, in seconds, of a single item.
	PerItem float64
}

// Eval returns PerItem*x, or 0 for non-positive x.
func (l Linear) Eval(x int) float64 {
	if x <= 0 {
		return 0
	}
	return l.PerItem * float64(x)
}

// Class reports LinearClass.
func (l Linear) Class() Class { return LinearClass }

// String renders the function as "a*x".
func (l Linear) String() string { return fmt.Sprintf("%g*x", l.PerItem) }

// Affine is the cost function c + a*x for x > 0 (and 0 at x = 0), the
// class required by the guaranteed heuristic of Section 3.3. The fixed
// part models, e.g., network latency or a process-startup overhead.
type Affine struct {
	// Fixed is the constant cost, in seconds, paid as soon as x > 0.
	Fixed float64
	// PerItem is the additional cost, in seconds, of each item.
	PerItem float64
}

// Eval returns Fixed + PerItem*x for x > 0, and 0 otherwise.
func (a Affine) Eval(x int) float64 {
	if x <= 0 {
		return 0
	}
	return a.Fixed + a.PerItem*float64(x)
}

// Class reports AffineClass, or LinearClass when Fixed is zero.
func (a Affine) Class() Class {
	if a.Fixed == 0 {
		return LinearClass
	}
	return AffineClass
}

// String renders the function as "c + a*x".
func (a Affine) String() string { return fmt.Sprintf("%g + %g*x", a.Fixed, a.PerItem) }

// Table is a cost function defined by explicit per-count values:
// Eval(x) = Values[x] for 0 <= x < len(Values). Evaluation beyond the
// table extrapolates linearly from the last two entries; this keeps the
// function total, which the dynamic programs require. A Table is the
// natural output of a measurement campaign where every block size of
// interest was benchmarked.
type Table struct {
	// Values holds the cost of 0, 1, 2, ... items. Values[0] should be 0.
	Values []float64
	// Increasing declares that the values are non-decreasing, enabling
	// Algorithm 2. It is validated by Validate, not enforced by Eval.
	Increasing bool
}

// Eval returns the tabulated cost, extrapolating linearly past the end
// of the table.
func (t Table) Eval(x int) float64 {
	if x <= 0 || len(t.Values) == 0 {
		return 0
	}
	if x < len(t.Values) {
		return t.Values[x]
	}
	// Linear extrapolation from the tail.
	last := len(t.Values) - 1
	if last == 0 {
		return t.Values[0]
	}
	slope := t.Values[last] - t.Values[last-1]
	if slope < 0 {
		slope = 0
	}
	return t.Values[last] + slope*float64(x-last)
}

// Class reports Increasing when the table was declared increasing, and
// General otherwise.
func (t Table) Class() Class {
	if t.Increasing {
		return Increasing
	}
	return General
}

// Validate checks the structural invariants of the table: a leading
// zero, non-negative finite entries, and monotonicity when declared.
func (t Table) Validate() error {
	if len(t.Values) == 0 {
		return errors.New("cost: empty table")
	}
	if t.Values[0] != 0 {
		return fmt.Errorf("cost: table value for 0 items is %g, want 0", t.Values[0])
	}
	prev := 0.0
	for i, v := range t.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("cost: table value %d is %g", i, v)
		}
		if t.Increasing && v < prev {
			return fmt.Errorf("cost: table declared increasing but value %d (%g) < value %d (%g)", i, v, i-1, prev)
		}
		prev = v
	}
	return nil
}

// Breakpoint is one vertex of a PiecewiseLinear cost function.
type Breakpoint struct {
	// X is the item count at which this vertex applies.
	X int
	// Y is the cost, in seconds, at X items.
	Y float64
}

// PiecewiseLinear interpolates linearly between breakpoints and
// extrapolates from the last segment. It models costs with regime
// changes, such as a message cost that jumps once the payload exceeds a
// router MTU or a compute cost that degrades when the working set falls
// out of cache. Breakpoints must be sorted by strictly increasing X.
type PiecewiseLinear struct {
	// Points holds the vertices, sorted by strictly increasing X. An
	// implicit vertex (0, 0) is assumed if the first point has X > 0.
	Points []Breakpoint
}

// Eval interpolates the cost of x items.
func (p PiecewiseLinear) Eval(x int) float64 {
	if x <= 0 || len(p.Points) == 0 {
		return 0
	}
	pts := p.Points
	// Implicit origin.
	prev := Breakpoint{X: 0, Y: 0}
	for _, bp := range pts {
		if x <= bp.X {
			return interpolate(prev, bp, x)
		}
		prev = bp
	}
	// Extrapolate from the last segment.
	if len(pts) >= 2 {
		return interpolate(pts[len(pts)-2], pts[len(pts)-1], x)
	}
	return interpolate(Breakpoint{}, pts[0], x)
}

func interpolate(a, b Breakpoint, x int) float64 {
	if b.X == a.X {
		return b.Y
	}
	t := float64(x-a.X) / float64(b.X-a.X)
	return a.Y + t*(b.Y-a.Y)
}

// Class reports Increasing when every segment is non-decreasing, and
// General otherwise.
func (p PiecewiseLinear) Class() Class {
	prevY := 0.0
	for _, bp := range p.Points {
		if bp.Y < prevY {
			return General
		}
		prevY = bp.Y
	}
	return Increasing
}

// Validate checks ordering and value sanity of the breakpoints.
func (p PiecewiseLinear) Validate() error {
	prevX := -1
	for i, bp := range p.Points {
		if bp.X <= prevX {
			return fmt.Errorf("cost: breakpoint %d has X=%d, not strictly greater than %d", i, bp.X, prevX)
		}
		if math.IsNaN(bp.Y) || math.IsInf(bp.Y, 0) || bp.Y < 0 {
			return fmt.Errorf("cost: breakpoint %d has Y=%g", i, bp.Y)
		}
		prevX = bp.X
	}
	if len(p.Points) == 0 {
		return errors.New("cost: piecewise-linear function without breakpoints")
	}
	return nil
}

// Sum is the pointwise sum of several cost functions. It models a cost
// with separable components, e.g. latency plus serialization plus a
// protocol overhead proportional to the number of packets.
type Sum struct {
	// Terms are the component functions; Eval adds their values.
	Terms []Function
}

// Eval returns the sum of the component costs.
func (s Sum) Eval(x int) float64 {
	total := 0.0
	for _, t := range s.Terms {
		total += t.Eval(x)
	}
	return total
}

// Class reports the weakest class among the terms (a sum of affine
// functions is affine, but a sum involving a general function is
// general).
func (s Sum) Class() Class {
	if len(s.Terms) == 0 {
		return LinearClass // identically zero
	}
	c := LinearClass
	for _, t := range s.Terms {
		tc := ClassOf(t)
		if tc < c {
			c = tc
		}
	}
	return c
}

// Scaled multiplies an underlying cost function by a constant factor.
// It models, e.g., a processor slowed by a known background load.
type Scaled struct {
	// F is the underlying cost function.
	F Function
	// Factor multiplies every cost; it must be non-negative.
	Factor float64
}

// Eval returns Factor * F.Eval(x).
func (s Scaled) Eval(x int) float64 { return s.Factor * s.F.Eval(x) }

// Class reports the class of the underlying function (scaling preserves
// linearity, affinity and monotonicity for non-negative factors).
func (s Scaled) Class() Class { return ClassOf(s.F) }

// Func adapts an ordinary function to the Function interface. The
// adapted function is treated as General unless wrapped in Classified.
type Func func(x int) float64

// Eval calls the adapted function for x > 0 and returns 0 otherwise.
func (f Func) Eval(x int) float64 {
	if x <= 0 {
		return 0
	}
	return f(x)
}

// Classified attaches an asserted class to an arbitrary cost function.
// The caller is responsible for the assertion being true; CheckClass can
// probe it empirically.
type Classified struct {
	// F is the underlying cost function.
	F Function
	// C is the asserted analytic class of F.
	C Class
}

// Eval evaluates the underlying function.
func (c Classified) Eval(x int) float64 { return c.F.Eval(x) }

// Class reports the asserted class.
func (c Classified) Class() Class { return c.C }

// Zero is the identically-zero cost function. It models a free resource,
// e.g. the root processor's communication to itself.
var Zero Function = Linear{PerItem: 0}
