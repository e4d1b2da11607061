// Package fixture exercises the poolalias analyzer: sync.Pool-backed
// row buffers must not escape via return, channel send or closure
// capture without a sanction — a pin (lent = true), a recycle closure,
// or an ownership transfer (owned: true). The clean shapes are the
// pooled-row idioms the rule sanctions (no production package pools
// rows; internal/core's DP rows are GC-owned): getF64 is the direct
// accessor, newRow the ownership transfer, lendRow the lend-return
// idiom, aliasWithPin the pin-before-alias move of a suffix share.
package fixture

import "sync"

var f64Pool = sync.Pool{New: func() any { return make([]float64, 0, 64) }}

// row is a pooled DP row: the lent/owned ownership bools plus pooled
// slice fields.
type row struct {
	cost   []float64
	choice []int32
	owned  bool
	lent   bool
}

// getF64 returns a direct Pool.Get value: the accessor idiom itself is
// the sanctioned way pooled memory leaves a function.
func getF64(n int) []float64 {
	if v := f64Pool.Get(); v != nil {
		s := v.([]float64)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]float64, n)
}

func putF64(s []float64) { f64Pool.Put(s[:0]) }

// newRow transfers ownership into an owning row: release() is now that
// row's job, so the literal is clean.
func newRow(n int) row {
	return row{cost: getF64(n), choice: make([]int32, n), owned: true}
}

// leakReturn hands an accessor's buffer to the caller with no release
// path: the classic leak the lent-row rule exists for.
func leakReturn(n int) []float64 {
	buf := getF64(n)
	return buf // want "escapes via return without a release path"
}

// reexport makes the same mistake without the intermediate variable:
// one accessor wrapping another is not the direct-Get idiom.
func reexport(n int) []float64 {
	return getF64(n) // want "escapes via return without a release path"
}

// lendRow pairs the escaping buffer with a recycle closure — the
// lend-return idiom — and is clean.
func lendRow(n int) ([]float64, func()) {
	buf := getF64(n)
	return buf, func() { putF64(buf) }
}

// leakSend ships pooled memory to a receiver whose lifetime nothing
// here controls.
func leakSend(ch chan []float64, n int) {
	buf := getF64(n)
	ch <- buf // want "escapes on a channel send"
}

// okSend sends freshly allocated memory: no pool involved.
func okSend(ch chan []float64, n int) {
	ch <- make([]float64, n)
}

// leakCapture closes over a pooled buffer without recycling it: the
// closure may run after release() returned the memory to the pool.
func leakCapture(n int) func() float64 {
	buf := getF64(n)
	return func() float64 { return buf[0] } // want "captured by a closure that does not recycle it"
}

// aliasNoPin shares src's buffers into a non-owning row without
// pinning, so src's release() would recycle memory the alias still
// reads.
func aliasNoPin(src *row) row {
	d := row{cost: src.cost, choice: src.choice} // want "aliased into a non-owning row without pinning"
	return d
}

// aliasWithPin pins the source first — the resolve() shape — so the
// owner's release() skips the shared buffers.
func aliasWithPin(src *row) row {
	src.lent = true
	return row{cost: src.cost, choice: src.choice}
}
