package monitor

import "testing"

func TestDivergenceThresholdCrossing(t *testing.T) {
	d := NewDivergence(DivergenceConfig{Threshold: 0.5, Window: 4, Trip: 2, Clear: 3})
	// Clean samples: observed within 1.5x planned.
	for i := 0; i < 10; i++ {
		if d.Observe(1.0, 1.4) {
			t.Fatalf("sample %d: tripped on clean stream", i)
		}
	}
	// Two divergent samples inside the window trip degraded mode.
	d.Observe(1.0, 2.0)
	if d.Degraded() {
		t.Fatal("tripped after a single divergent sample")
	}
	if !d.Observe(1.0, 3.0) {
		t.Fatal("did not trip after Trip divergent samples")
	}
}

func TestDivergenceHysteresisNoThrash(t *testing.T) {
	d := NewDivergence(DivergenceConfig{Threshold: 0.5, Window: 4, Trip: 2, Clear: 3})
	// A single noisy sample in an otherwise clean stream must not
	// flip the mode...
	d.Observe(1.0, 5.0)
	for i := 0; i < 20; i++ {
		if d.Observe(1.0, 1.0) {
			t.Fatalf("sample %d: noisy singleton tripped the detector", i)
		}
	}
	// ...and once degraded, interleaved clean samples shorter than
	// Clear must not flip it back (the flapping-link pattern).
	d.Observe(1.0, 5.0)
	d.Observe(1.0, 5.0)
	if !d.Degraded() {
		t.Fatal("did not trip")
	}
	for cycle := 0; cycle < 5; cycle++ {
		d.Observe(1.0, 1.0)
		d.Observe(1.0, 1.0) // two clean — still below Clear=3
		if !d.Observe(1.0, 5.0) {
			t.Fatalf("cycle %d: mode thrashed back to exact mid-flap", cycle)
		}
	}
}

func TestDivergenceRecovery(t *testing.T) {
	d := NewDivergence(DivergenceConfig{Threshold: 0.5, Window: 4, Trip: 2, Clear: 3})
	d.Observe(1.0, 9.0)
	d.Observe(1.0, 9.0)
	if !d.Degraded() {
		t.Fatal("did not trip")
	}
	// Clear consecutive clean samples recover exact mode.
	d.Observe(1.0, 1.0)
	d.Observe(1.0, 1.0)
	if !d.Degraded() {
		t.Fatal("recovered before Clear clean samples")
	}
	if d.Observe(1.0, 1.0) {
		t.Fatal("did not recover after Clear clean samples")
	}
	// The vote window was reset: one divergent sample right after
	// recovery is again just noise.
	if d.Observe(1.0, 9.0) {
		t.Fatal("stale pre-recovery votes re-tripped the detector")
	}
	if !d.Observe(1.0, 9.0) {
		t.Fatal("fresh divergence after recovery did not trip")
	}
}

func TestDivergenceForcedPartition(t *testing.T) {
	d := NewDivergence(DivergenceConfig{})
	d.ForceDegraded()
	if !d.Degraded() || !d.Forced() {
		t.Fatal("ForceDegraded did not pin degraded mode")
	}
	// No amount of clean samples un-pins a structural partition.
	for i := 0; i < 50; i++ {
		d.Observe(1.0, 1.0)
	}
	if !d.Degraded() {
		t.Fatal("clean samples released a forced partition pin")
	}
	// Healing releases the pin and clears the vote state.
	d.Heal()
	if d.Degraded() || d.Forced() {
		t.Fatal("Heal did not release the pin")
	}
	// Repeated forcing is one pin, released by one Heal.
	d.ForceDegraded()
	d.ForceDegraded()
	if !d.Degraded() || !d.Forced() {
		t.Fatal("repeated ForceDegraded did not pin degraded mode")
	}
	d.Heal()
	if d.Degraded() || d.Forced() {
		t.Fatal("one Heal did not release a repeated pin")
	}
}

func TestDivergenceZeroPlanned(t *testing.T) {
	d := NewDivergence(DivergenceConfig{Window: 4, Trip: 2})
	// The model said "free" (e.g. root's own link); any positive
	// observation is divergent.
	d.Observe(0, 0.5)
	if !d.Observe(0, 0.5) {
		t.Fatal("positive observations against zero plan did not trip")
	}
	// Zero observed against zero planned is clean.
	d2 := NewDivergence(DivergenceConfig{Window: 4, Trip: 2})
	for i := 0; i < 10; i++ {
		if d2.Observe(0, 0) {
			t.Fatal("zero/zero sample tripped")
		}
	}
}

func TestDivergenceDefaults(t *testing.T) {
	cfg := DivergenceConfig{}.normalized()
	if cfg.Threshold != 0.5 || cfg.Window != 8 || cfg.Trip != 4 || cfg.Clear != 8 {
		t.Errorf("defaults = %+v", cfg)
	}
	// Trip never exceeds Window.
	cfg = DivergenceConfig{Window: 3, Trip: 9}.normalized()
	if cfg.Trip != 3 {
		t.Errorf("Trip = %d, want clamped to 3", cfg.Trip)
	}
	if d := NewDivergence(DivergenceConfig{}); d.Degraded() || d.Forced() {
		t.Error("fresh detector starts degraded")
	}
}
