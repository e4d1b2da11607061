package monitor

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestSeriesRingBuffer(t *testing.T) {
	s := NewSeries(3)
	for i := 0; i < 5; i++ {
		s.Observe(Measurement{At: float64(i), Value: float64(i * 10)})
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	// Oldest retained is i=2.
	for i := 0; i < 3; i++ {
		if got := s.At(i).Value; got != float64((i+2)*10) {
			t.Errorf("At(%d) = %g, want %g", i, got, float64((i+2)*10))
		}
	}
	last, ok := s.Last()
	if !ok || last.Value != 40 {
		t.Errorf("Last = %+v, %v", last, ok)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(4)
	if _, ok := s.Last(); ok {
		t.Error("empty series has a last value")
	}
	if s.Len() != 0 {
		t.Error("empty series has nonzero length")
	}
}

func TestSeriesMinimumCapacity(t *testing.T) {
	s := NewSeries(0)
	s.Observe(Measurement{Value: 1})
	s.Observe(Measurement{Value: 2})
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1 (capacity clamped to 1)", s.Len())
	}
}

func fill(vals ...float64) *Series {
	s := NewSeries(100)
	for i, v := range vals {
		s.Observe(Measurement{At: float64(i), Value: v})
	}
	return s
}

func TestLastValueForecaster(t *testing.T) {
	v, ok := LastValue{}.Forecast(fill(1, 2, 3))
	if !ok || v != 3 {
		t.Errorf("last = %g, %v", v, ok)
	}
	if _, ok := (LastValue{}).Forecast(NewSeries(4)); ok {
		t.Error("forecast from empty series")
	}
}

func TestMeanWindowForecaster(t *testing.T) {
	v, ok := MeanWindow{K: 2}.Forecast(fill(1, 2, 4))
	if !ok || v != 3 {
		t.Errorf("mean(2) = %g, %v, want 3", v, ok)
	}
	// Window longer than the series uses everything.
	v, ok = MeanWindow{K: 10}.Forecast(fill(1, 2, 3))
	if !ok || v != 2 {
		t.Errorf("mean(10) over 3 = %g, want 2", v)
	}
	if _, ok := (MeanWindow{K: 0}).Forecast(fill(1)); ok {
		t.Error("K=0 accepted")
	}
}

func TestMedianWindowForecaster(t *testing.T) {
	v, ok := MedianWindow{K: 3}.Forecast(fill(1, 100, 2))
	if !ok || v != 2 {
		t.Errorf("median(3) = %g, want 2 (robust to the spike)", v)
	}
	v, ok = MedianWindow{K: 4}.Forecast(fill(1, 2, 3, 4))
	if !ok || v != 2.5 {
		t.Errorf("median(4) = %g, want 2.5", v)
	}
}

func TestEWMAForecaster(t *testing.T) {
	// Constant series forecasts the constant.
	v, ok := EWMA{Alpha: 0.5}.Forecast(fill(4, 4, 4, 4))
	if !ok || v != 4 {
		t.Errorf("ewma = %g, want 4", v)
	}
	// Reacts toward recent values.
	v, _ = EWMA{Alpha: 0.5}.Forecast(fill(0, 0, 0, 8))
	if v != 4 {
		t.Errorf("ewma = %g, want 4", v)
	}
	if _, ok := (EWMA{Alpha: 0}).Forecast(fill(1)); ok {
		t.Error("alpha=0 accepted")
	}
	if _, ok := (EWMA{Alpha: 2}).Forecast(fill(1)); ok {
		t.Error("alpha=2 accepted")
	}
}

func TestMonitorForecastUnknownResource(t *testing.T) {
	m := New(16, nil)
	if _, _, err := m.Forecast("cpu:nowhere"); err == nil {
		t.Error("forecast for unknown resource succeeded")
	}
}

func TestMonitorAdaptiveSelectionConstantSeries(t *testing.T) {
	m := New(64, nil)
	for i := 0; i < 30; i++ {
		m.Observe("cpu:steady", float64(i), 0.75)
	}
	v, method, err := m.Forecast("cpu:steady")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.75) > 1e-9 {
		t.Errorf("forecast = %g, want 0.75 (method %s)", v, method)
	}
}

func TestMonitorAdaptivePrefersMedianUnderSpikes(t *testing.T) {
	// A series that sits at 1.0 with occasional spikes to 0.1: the
	// median window has the lowest mean absolute error; last-value
	// gets burned after every spike.
	m := New(128, nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		v := 1.0
		if rng.Float64() < 0.15 {
			v = 0.1
		}
		m.Observe("cpu:spiky", float64(i), v)
	}
	v, method, err := m.Forecast("cpu:spiky")
	if err != nil {
		t.Fatal(err)
	}
	if v < 0.8 {
		t.Errorf("forecast = %g (%s), expected near the 1.0 baseline", v, method)
	}
	if method == "last" {
		t.Errorf("adaptive selection picked %q for a spiky series", method)
	}
}

func TestMonitorTracksRegimeChange(t *testing.T) {
	m := New(256, nil)
	for i := 0; i < 50; i++ {
		m.Observe("cpu:shift", float64(i), 1.0)
	}
	for i := 50; i < 100; i++ {
		m.Observe("cpu:shift", float64(i), 0.3)
	}
	v, _, err := m.Forecast("cpu:shift")
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.5 {
		t.Errorf("forecast = %g after 50 samples at 0.3", v)
	}
}

func TestMonitorResources(t *testing.T) {
	m := New(8, nil)
	m.Observe(BWResource("b"), 0, 1)
	m.Observe(CPUResource("a"), 0, 1)
	got := m.Resources()
	if len(got) != 2 || got[0] != "bw:b" || got[1] != "cpu:a" {
		t.Errorf("Resources = %v", got)
	}
}

func TestApplyForecastsAdjustsCosts(t *testing.T) {
	p := platform.Platform{
		Name: "mini",
		Root: "r",
		Machines: []platform.Machine{
			{Name: "r", CPUs: 1, Beta: 0.01},
			{Name: "w", CPUs: 1, Beta: 0.004, Alpha: 1e-5},
		},
	}
	m := New(32, nil)
	for i := 0; i < 20; i++ {
		m.Observe(CPUResource("w"), float64(i), 0.5) // half the CPU available
		m.Observe(BWResource("w"), float64(i), 0.25) // quarter bandwidth
	}
	adjusted := ApplyForecasts(p, m)
	w, _ := adjusted.Machine("w")
	if math.Abs(w.Beta-0.008) > 1e-9 {
		t.Errorf("adjusted beta = %g, want 0.008", w.Beta)
	}
	if math.Abs(w.Alpha-4e-5) > 1e-12 {
		t.Errorf("adjusted alpha = %g, want 4e-5", w.Alpha)
	}
	// The unmeasured root keeps its constants; the original platform
	// is untouched.
	r, _ := adjusted.Machine("r")
	if r.Beta != 0.01 {
		t.Errorf("root beta changed to %g", r.Beta)
	}
	if p.Machines[1].Beta != 0.004 {
		t.Error("ApplyForecasts mutated its input")
	}
}

func TestApplyForecastsClampsInsaneValues(t *testing.T) {
	p := platform.Platform{
		Name: "mini",
		Root: "r",
		Machines: []platform.Machine{
			{Name: "r", CPUs: 1, Beta: 0.01},
			{Name: "w", CPUs: 1, Beta: 0.004, Alpha: 1e-5},
		},
	}
	m := New(8, nil)
	m.Observe(CPUResource("w"), 0, 0.0001) // essentially dead
	m.Observe(CPUResource("r"), 0, 5.0)    // "150% available" nonsense
	adjusted := ApplyForecasts(p, m)
	w, _ := adjusted.Machine("w")
	if w.Beta > 0.004/0.01+1e-9 {
		t.Errorf("beta exploded: %g", w.Beta)
	}
	r, _ := adjusted.Machine("r")
	if r.Beta != 0.01 {
		t.Errorf("over-unity availability sped the root up: %g", r.Beta)
	}
}

// TestMonitorRebalanceScenario is the end-to-end use the paper
// sketches: query the monitor just before a scatter, rebalance, and
// beat the stale distribution.
func TestMonitorRebalanceScenario(t *testing.T) {
	p := platform.Table1()
	const n = 100000

	// Calibrated distribution.
	procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	calibrated, err := core.Heuristic(procs, n)
	if err != nil {
		t.Fatal(err)
	}

	// caseb picks up a background job: 40% availability, observed by
	// the daemon.
	m := New(64, nil)
	for i := 0; i < 30; i++ {
		m.Observe(CPUResource("caseb"), float64(i), 0.4)
	}
	loadedPlatform := ApplyForecasts(p, m)
	loadedProcs, err := loadedPlatform.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}

	// The stale distribution on the loaded grid vs a fresh one. The
	// processor order is identical (alpha unchanged), so the
	// distributions are comparable index by index.
	stale := core.Makespan(loadedProcs, calibrated.Distribution)
	fresh, err := core.Heuristic(loadedProcs, n)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Makespan >= stale {
		t.Errorf("rebalancing did not help: fresh %g vs stale %g", fresh.Makespan, stale)
	}
}

func TestForecasterNames(t *testing.T) {
	for _, f := range DefaultForecasters() {
		if f.Name() == "" {
			t.Errorf("forecaster %T has no name", f)
		}
	}
}

func TestMonitorConcurrentSafety(t *testing.T) {
	m := New(64, nil)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				m.Observe(CPUResource("shared"), float64(i), 0.5)
				m.Forecast(CPUResource("shared"))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	v, _, err := m.Forecast(CPUResource("shared"))
	if err != nil || math.Abs(v-0.5) > 1e-9 {
		t.Errorf("forecast = %g, %v", v, err)
	}
}

// Resources returns the monitored resource names, sorted.
func (m *Monitor) Resources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.resources))
	for name := range m.resources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
