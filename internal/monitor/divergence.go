package monitor

// Divergence decides when the planner's cost model can no longer be
// trusted. The fault-tolerant scatter predicts a cost for every
// transfer from the same model the solver optimized; the runtime then
// observes what the transfer actually took. On a healthy grid the two
// agree and exact DP re-solves stay meaningful. On a degraded network —
// flapping links, partitions, rerouted multi-hop paths — observations
// drift away from the plan, and optimizing the stale model is worse
// than not optimizing at all: that is when the scatter should fall back
// to diffusion rebalancing (core.Diffuse), which only needs the live
// adjacency.
//
// The detector is a windowed vote with hysteresis, in the NWS spirit of
// the rest of this package:
//
//   - a sample "diverges" when the observed cost exceeds the planned
//     cost by more than Threshold (relative);
//   - degraded mode trips when at least Trip of the last Window
//     samples diverge — a single noisy sample cannot flip the mode;
//   - exact mode returns only after Clear consecutive clean samples —
//     so the mode cannot thrash while the link flaps;
//   - ForceDegraded bypasses the vote for structural evidence
//     (a partition isolating the root) and pins degraded mode until
//     Heal is called, after which the vote applies again.
//
// Divergence is deliberately clock-free and allocation-free per sample:
// the scatter loop calls Observe once per completed (or failed)
// transfer under virtual time.

// DivergenceConfig tunes the detector. Zero values select defaults.
type DivergenceConfig struct {
	// Threshold is the relative slowdown that marks one sample as
	// divergent: observed > planned·(1+Threshold). Default 0.5.
	Threshold float64
	// Window is the number of recent samples voted over. Default 8.
	Window int
	// Trip is how many divergent samples within the window switch the
	// detector to degraded mode. Default max(2, Window/2).
	Trip int
	// Clear is how many consecutive clean samples switch it back to
	// exact mode. Default Window.
	Clear int
}

func (c DivergenceConfig) normalized() DivergenceConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Trip <= 0 {
		c.Trip = c.Window / 2
		if c.Trip < 2 {
			c.Trip = 2
		}
	}
	if c.Trip > c.Window {
		c.Trip = c.Window
	}
	if c.Clear <= 0 {
		c.Clear = c.Window
	}
	return c
}

// Divergence is the model-divergence detector. The zero value is not
// ready; use NewDivergence.
type Divergence struct {
	cfg      DivergenceConfig
	recent   []bool // ring buffer of per-sample verdicts
	size     int
	head     int
	clean    int  // consecutive clean samples
	degraded bool // vote-driven state
	forced   bool // structural state (partition), pinned until Heal
}

// NewDivergence builds a detector with cfg (zero fields defaulted).
func NewDivergence(cfg DivergenceConfig) *Divergence {
	cfg = cfg.normalized()
	return &Divergence{cfg: cfg, recent: make([]bool, cfg.Window)}
}

// Observe records one completed transfer: the cost the plan predicted
// and the cost the runtime measured. It returns the detector's mode
// after the sample. Non-positive planned costs treat any positive
// observation as divergent (the model predicted a free transfer that
// was not).
func (d *Divergence) Observe(planned, observed float64) (degraded bool) {
	diverges := false
	if planned > 0 {
		diverges = observed > planned*(1+d.cfg.Threshold)
	} else {
		diverges = observed > 0
	}
	return d.observe(diverges)
}

// ObserveFailure records a transfer attempt that never completed — a
// timeout against a dropped or cut link. Whatever the model predicted,
// the network did not deliver, so the sample is divergent by
// definition.
func (d *Divergence) ObserveFailure() (degraded bool) {
	return d.observe(true)
}

func (d *Divergence) observe(diverges bool) (degraded bool) {
	d.recent[d.head] = diverges
	d.head = (d.head + 1) % len(d.recent)
	if d.size < len(d.recent) {
		d.size++
	}
	if diverges {
		d.clean = 0
	} else {
		d.clean++
	}

	if !d.degraded {
		votes := 0
		for i := 0; i < d.size; i++ {
			if d.recent[i] {
				votes++
			}
		}
		if votes >= d.cfg.Trip {
			d.degraded = true
		}
	} else if d.clean >= d.cfg.Clear {
		d.degraded = false
		d.reset()
	}
	return d.Degraded()
}

// reset empties the vote window after a recovery so stale divergent
// samples cannot instantly re-trip the detector.
func (d *Divergence) reset() {
	d.size = 0
	d.head = 0
	d.clean = 0
}

// ForceDegraded pins the detector in degraded mode on structural
// evidence — a partition that isolates the root or cuts off a site —
// regardless of the sample vote.
func (d *Divergence) ForceDegraded() {
	d.forced = true
}

// Heal releases a ForceDegraded pin, e.g. when a partition's window
// ends. The vote-driven state is also cleared: the healed network gets
// a fresh window to prove itself.
func (d *Divergence) Heal() {
	d.forced = false
	d.degraded = false
	d.reset()
}

// Degraded reports whether re-solves should use the diffusion fallback
// instead of the exact DP.
func (d *Divergence) Degraded() bool { return d.degraded || d.forced }

// Forced reports whether degraded mode is pinned by structural
// evidence rather than the sample vote.
func (d *Divergence) Forced() bool { return d.forced }
