// Package fixture has two analyzers report at one position, the shape
// where the driver's order must not depend on the order the analyzers
// ran in (TestAnalyzerOrderIndependent).
package fixture

import "sync"

var f64Pool = sync.Pool{New: func() any { return make([]float64, 0, 64) }}

func getF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		if s := v.([]float64); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

// leakBoth's naked return leaks both the pooled buffer (poolalias) and
// the held lock (unlockpath).
func leakBoth(mu *sync.Mutex, n int) (buf []float64) {
	mu.Lock()
	buf = getF64(n)
	return
}
