// Package monitor implements a Network-Weather-Service-style resource
// monitor (Wolski et al., the paper's reference [25]). The paper's
// Section 3 notes that the computed distribution "is not necessarily
// based on static parameters estimated for the whole execution: a
// monitor daemon process (like [25]) running aside the application
// could be queried just before a scatter operation to retrieve the
// instantaneous grid characteristics."
//
// This package provides that daemon's core: per-resource measurement
// time series, a family of forecasters (last value, sliding mean,
// sliding median, exponential smoothing), and the NWS trick of
// dynamically selecting whichever forecaster has been most accurate so
// far. ApplyForecasts folds the forecasts back into a platform
// description so the solvers in internal/core can rebalance from fresh
// costs.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/platform"
)

// Measurement is one observation of a resource at a point in time.
type Measurement struct {
	// At is the observation time in seconds (any monotonic origin).
	At float64
	// Value is the observed quantity: this package uses availability
	// fractions in (0, 1] for CPUs and bandwidth fractions for links.
	Value float64
}

// Series is a bounded history of measurements (a ring buffer).
type Series struct {
	buf   []Measurement
	start int
	size  int
}

// NewSeries creates a series keeping at most capacity measurements.
func NewSeries(capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{buf: make([]Measurement, capacity)}
}

// Observe appends a measurement, evicting the oldest at capacity.
func (s *Series) Observe(m Measurement) {
	if s.size < len(s.buf) {
		s.buf[(s.start+s.size)%len(s.buf)] = m
		s.size++
		return
	}
	s.buf[s.start] = m
	s.start = (s.start + 1) % len(s.buf)
}

// Len returns the number of retained measurements.
func (s *Series) Len() int { return s.size }

// At returns the i-th retained measurement, oldest first.
func (s *Series) At(i int) Measurement {
	return s.buf[(s.start+i)%len(s.buf)]
}

// Last returns the most recent measurement.
func (s *Series) Last() (Measurement, bool) {
	if s.size == 0 {
		return Measurement{}, false
	}
	return s.At(s.size - 1), true
}

// Forecaster predicts the next value of a series.
type Forecaster interface {
	// Name identifies the forecaster in reports.
	Name() string
	// Forecast predicts the next value; ok is false when the series
	// is too short.
	Forecast(s *Series) (value float64, ok bool)
}

// LastValue predicts the most recent observation (a random-walk
// forecast).
type LastValue struct{}

// Name returns "last".
func (LastValue) Name() string { return "last" }

// Forecast returns the latest observation.
func (LastValue) Forecast(s *Series) (float64, bool) {
	m, ok := s.Last()
	return m.Value, ok
}

// MeanWindow predicts the mean of the last K observations.
type MeanWindow struct {
	// K is the window length.
	K int
}

// Name returns "mean(K)".
func (f MeanWindow) Name() string { return fmt.Sprintf("mean(%d)", f.K) }

// Forecast averages the last K observations.
func (f MeanWindow) Forecast(s *Series) (float64, bool) {
	k := f.K
	if k < 1 || s.Len() == 0 {
		return 0, false
	}
	if k > s.Len() {
		k = s.Len()
	}
	sum := 0.0
	for i := s.Len() - k; i < s.Len(); i++ {
		sum += s.At(i).Value
	}
	return sum / float64(k), true
}

// MedianWindow predicts the median of the last K observations, robust
// to measurement spikes.
type MedianWindow struct {
	// K is the window length.
	K int
}

// Name returns "median(K)".
func (f MedianWindow) Name() string { return fmt.Sprintf("median(%d)", f.K) }

// Forecast returns the median of the last K observations.
func (f MedianWindow) Forecast(s *Series) (float64, bool) {
	k := f.K
	if k < 1 || s.Len() == 0 {
		return 0, false
	}
	if k > s.Len() {
		k = s.Len()
	}
	vals := make([]float64, 0, k)
	for i := s.Len() - k; i < s.Len(); i++ {
		vals = append(vals, s.At(i).Value)
	}
	sort.Float64s(vals)
	if k%2 == 1 {
		return vals[k/2], true
	}
	return (vals[k/2-1] + vals[k/2]) / 2, true
}

// EWMA predicts by exponentially weighted moving average with
// smoothing factor Alpha in (0, 1]: higher Alpha reacts faster.
type EWMA struct {
	// Alpha is the smoothing factor.
	Alpha float64
}

// Name returns "ewma(alpha)".
func (f EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", f.Alpha) }

// Forecast folds the whole retained series.
func (f EWMA) Forecast(s *Series) (float64, bool) {
	if s.Len() == 0 || f.Alpha <= 0 || f.Alpha > 1 {
		return 0, false
	}
	acc := s.At(0).Value
	for i := 1; i < s.Len(); i++ {
		acc = f.Alpha*s.At(i).Value + (1-f.Alpha)*acc
	}
	return acc, true
}

// DefaultForecasters returns the NWS-like ensemble.
func DefaultForecasters() []Forecaster {
	return []Forecaster{
		LastValue{},
		MeanWindow{K: 5},
		MeanWindow{K: 20},
		MedianWindow{K: 5},
		EWMA{Alpha: 0.3},
	}
}

// resourceState tracks one resource: its series plus each forecaster's
// running absolute error (computed by forecasting each new observation
// before recording it — the NWS postcast evaluation).
type resourceState struct {
	series    *Series
	predicted []float64 // last prediction per forecaster (NaN if none)
	errSum    []float64
	errCount  []int
}

// Monitor is a registry of resource series with adaptive forecasting.
// It is safe for concurrent use.
type Monitor struct {
	mu          sync.Mutex
	capacity    int                       //scatterlint:guardedby immutable
	forecasters []Forecaster              //scatterlint:guardedby immutable
	resources   map[string]*resourceState //scatterlint:guardedby mu
}

// New creates a monitor retaining up to capacity measurements per
// resource and using the given forecaster ensemble (DefaultForecasters
// when nil).
func New(capacity int, forecasters []Forecaster) *Monitor {
	if forecasters == nil {
		forecasters = DefaultForecasters()
	}
	return &Monitor{
		capacity:    capacity,
		forecasters: forecasters,
		resources:   make(map[string]*resourceState),
	}
}

// Observe records a measurement for the named resource, first scoring
// every forecaster's previous prediction against it.
func (m *Monitor) Observe(resource string, at, value float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.resources[resource]
	if !ok {
		st = &resourceState{
			series:    NewSeries(m.capacity),
			predicted: make([]float64, len(m.forecasters)),
			errSum:    make([]float64, len(m.forecasters)),
			errCount:  make([]int, len(m.forecasters)),
		}
		for i := range st.predicted {
			st.predicted[i] = math.NaN()
		}
		m.resources[resource] = st
	}
	// Score the standing predictions.
	for i, pred := range st.predicted {
		if !math.IsNaN(pred) {
			st.errSum[i] += math.Abs(pred - value)
			st.errCount[i]++
		}
	}
	st.series.Observe(Measurement{At: at, Value: value})
	// Stand new predictions for the next observation.
	for i, f := range m.forecasters {
		if v, ok := f.Forecast(st.series); ok {
			st.predicted[i] = v
		} else {
			st.predicted[i] = math.NaN()
		}
	}
}

// Forecast predicts the resource's next value using the forecaster
// with the lowest mean absolute error so far (the NWS adaptive
// selection); before any forecaster has been scored it falls back to
// the first applicable one. It also reports which forecaster won.
func (m *Monitor) Forecast(resource string) (value float64, method string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.resources[resource]
	if !ok || st.series.Len() == 0 {
		return 0, "", fmt.Errorf("monitor: no measurements for %q", resource)
	}
	best := -1
	bestErr := math.Inf(1)
	for i := range m.forecasters {
		if st.errCount[i] == 0 {
			continue
		}
		e := st.errSum[i] / float64(st.errCount[i])
		if e < bestErr {
			best, bestErr = i, e
		}
	}
	if best < 0 {
		for i, f := range m.forecasters {
			if v, ok := f.Forecast(st.series); ok {
				return v, f.Name(), nil
			}
			_ = i
		}
		return 0, "", errors.New("monitor: no applicable forecaster")
	}
	v, ok := m.forecasters[best].Forecast(st.series)
	if !ok {
		return 0, "", errors.New("monitor: best forecaster became inapplicable")
	}
	return v, m.forecasters[best].Name(), nil
}

// CPUResource and BWResource name the conventional series for a
// machine: CPU availability fraction and link bandwidth fraction, both
// in (0, 1].
func CPUResource(machine string) string { return "cpu:" + machine }

// BWResource names the bandwidth-fraction series of a machine's link.
func BWResource(machine string) string { return "bw:" + machine }

// UpResource names a machine's liveness series: 1 when the machine is
// observed serving, 0 when a transfer it was serving was cut by its
// crash. The fault-tolerant collectives feed it through
// fault.MonitorObserver, so a forecast near 0 flags a machine that
// should not win a root re-election.
func UpResource(machine string) string { return "up:" + machine }

// ApplyForecasts returns a copy of the platform whose cost constants
// reflect the monitor's instantaneous forecasts: a machine with CPU
// availability a gets beta/a (less of the CPU per second of wall
// clock), a link with bandwidth fraction b gets alpha/b. Resources
// without measurements keep their calibrated constants. Forecasts are
// clamped into [0.01, 1] — a machine never gets faster than its
// calibration and never infinitely slow.
func ApplyForecasts(p platform.Platform, m *Monitor) platform.Platform {
	out := p
	out.Machines = append([]platform.Machine(nil), p.Machines...)
	for i, machine := range out.Machines {
		if v, _, err := m.Forecast(CPUResource(machine.Name)); err == nil {
			out.Machines[i].Beta = machine.Beta / clampFrac(v)
		}
		if v, _, err := m.Forecast(BWResource(machine.Name)); err == nil && machine.Alpha > 0 {
			out.Machines[i].Alpha = machine.Alpha / clampFrac(v)
		}
	}
	return out
}

func clampFrac(v float64) float64 {
	if math.IsNaN(v) || v < 0.01 {
		return 0.01
	}
	if v > 1 {
		return 1
	}
	return v
}
