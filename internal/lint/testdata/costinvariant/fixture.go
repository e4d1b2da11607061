// Package fixture exercises the costinvariant analyzer: cost-model
// literals must satisfy the paper's Eq. 2 preconditions.
package fixture

import (
	"repro/internal/core"
	"repro/internal/cost"
)

var (
	badLinear  = cost.Linear{PerItem: -1}              // want "Linear.PerItem is negative"
	badAffine  = cost.Affine{Fixed: -0.5, PerItem: 2}  // want "Affine.Fixed is negative"
	badAffine2 = cost.Affine{1, -2}                    // want "Affine.PerItem is negative"
	badScaled  = cost.Scaled{F: cost.Zero, Factor: -2} // want "Scaled.Factor is negative"

	badTableOrigin = cost.Table{Values: []float64{1, 2}}  // want "Table.Values.0. is nonzero"
	badTableEntry  = cost.Table{Values: []float64{0, -3}} // want "Table.Values.1. is negative"

	badBreakpoint = cost.PiecewiseLinear{Points: []cost.Breakpoint{{X: 5, Y: -1}}} // want "Breakpoint.Y is negative"

	badProc = core.LinearProcessor{Name: "neg", Alpha: -1, Beta: 2} // want "LinearProcessor.Alpha is negative"
	badBeta = core.LinearProcessor{"neg", 1, -2}                    // want "LinearProcessor.Beta is negative"
)

// Valid literals and non-constant expressions are not the analyzer's
// business: runtime values go through cost.CheckClass / Validate.
func ok(alpha float64) []cost.Function {
	return []cost.Function{
		cost.Linear{PerItem: 0.02},
		cost.Affine{Fixed: 3, PerItem: 0.1},
		cost.Linear{PerItem: alpha},
		cost.Table{Values: []float64{0, 1, 2}, Increasing: true},
	}
}
