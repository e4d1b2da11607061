package seismic

import (
	"math"
	"testing"
)

// TTPoint is one sample of a travel-time curve.
type TTPoint struct {
	// DistanceDeg is the epicentral distance in degrees.
	DistanceDeg float64
	// Seconds is the modeled travel time.
	Seconds float64
	// Kind records how the sample was traced (turning, direct, or
	// fallback inside the core shadow).
	Kind RayKind
}

// TravelTimeCurve samples the model's travel-time curve T(delta) for a
// wave type and source depth, from just above 0 degrees out to maxDeg,
// with the given number of samples — the classic seismological
// travel-time table (e.g. Jeffreys-Bullen) computed from this model.
// It is the standard way to eyeball a velocity model's sanity and is
// used by the tests to pin the tracer's physics.
func (t *Tracer) TravelTimeCurve(wave WaveType, depthKm, maxDeg float64, samples int) []TTPoint {
	if samples < 2 {
		samples = 2
	}
	if maxDeg <= 0 {
		maxDeg = 100
	}
	curve := make([]TTPoint, samples)
	for i := range curve {
		deg := maxDeg * float64(i+1) / float64(samples)
		ev := Event{
			SrcDepthKm: depthKm,
			CapLon:     deg * math.Pi / 180,
			Wave:       wave,
		}
		ray := t.Trace(ev)
		curve[i] = TTPoint{DistanceDeg: deg, Seconds: ray.TravelTime, Kind: ray.Kind}
	}
	return curve
}

func TestTravelTimeCurveMonotoneBeforeShadow(t *testing.T) {
	tr := newTracer(t)
	curve := tr.TravelTimeCurve(WaveP, 0, 90, 45)
	prev := 0.0
	for _, pt := range curve {
		if pt.Kind == RayFallback {
			break
		}
		if pt.Seconds <= prev {
			t.Fatalf("T(%g deg) = %g not increasing past %g", pt.DistanceDeg, pt.Seconds, prev)
		}
		prev = pt.Seconds
	}
	if prev == 0 {
		t.Fatal("no turning rays sampled at all")
	}
}

func TestTravelTimeCurvePlausibleMagnitudes(t *testing.T) {
	// Real-Earth anchors (IASP91): P at 30 deg is about 370 s, at 60
	// deg about 600 s. Accept generous windows for the 6-shell model.
	tr := newTracer(t)
	curve := tr.TravelTimeCurve(WaveP, 0, 90, 90)
	at := func(deg float64) TTPoint {
		for _, pt := range curve {
			if pt.DistanceDeg >= deg {
				return pt
			}
		}
		return curve[len(curve)-1]
	}
	if pt := at(30); pt.Seconds < 250 || pt.Seconds > 550 {
		t.Errorf("T(30deg) = %g s, want roughly 370 s", pt.Seconds)
	}
	if pt := at(60); pt.Seconds < 450 || pt.Seconds > 900 {
		t.Errorf("T(60deg) = %g s, want roughly 600 s", pt.Seconds)
	}
}

func TestTravelTimeCurveSSlowerThanP(t *testing.T) {
	tr := newTracer(t)
	pCurve := tr.TravelTimeCurve(WaveP, 0, 60, 30)
	sCurve := tr.TravelTimeCurve(WaveS, 0, 60, 30)
	for i := range pCurve {
		if pCurve[i].Kind == RayFallback || sCurve[i].Kind == RayFallback {
			continue
		}
		if sCurve[i].Seconds <= pCurve[i].Seconds {
			t.Fatalf("S not slower than P at %g deg: %g vs %g",
				pCurve[i].DistanceDeg, sCurve[i].Seconds, pCurve[i].Seconds)
		}
	}
}

func TestShadowStart(t *testing.T) {
	tr := newTracer(t)
	shadow := tr.ShadowStart(WaveP, 180, 180)
	// The real P shadow starts near 98-103 degrees; the simplified
	// model should land in a broad band around it.
	if shadow < 70 || shadow > 130 {
		t.Errorf("P shadow starts at %g deg, expected around 100", shadow)
	}
	// No shadow within a short range.
	if s := tr.ShadowStart(WaveP, 30, 30); s <= 30 {
		t.Errorf("shadow reported at %g deg inside the well-lit range", s)
	}
}

func TestTravelTimeCurveDepthShiftsDown(t *testing.T) {
	tr := newTracer(t)
	surface := tr.TravelTimeCurve(WaveP, 0, 60, 20)
	deep := tr.TravelTimeCurve(WaveP, 500, 60, 20)
	faster := 0
	for i := range surface {
		if surface[i].Kind != RayFallback && deep[i].Kind != RayFallback &&
			deep[i].Seconds < surface[i].Seconds {
			faster++
		}
	}
	if faster < len(surface)/2 {
		t.Errorf("deep-source rays faster at only %d/%d distances", faster, len(surface))
	}
}

func TestTravelTimeCurveDefaults(t *testing.T) {
	tr := newTracer(t)
	curve := tr.TravelTimeCurve(WaveP, 0, 0, 0)
	if len(curve) != 2 {
		t.Fatalf("degenerate parameters produced %d samples, want the clamped 2", len(curve))
	}
	if curve[len(curve)-1].DistanceDeg != 100 {
		t.Errorf("default max distance = %g, want 100", curve[len(curve)-1].DistanceDeg)
	}
}

// ShadowStart returns the epicentral distance (degrees) at which the
// model's mantle-turning rays run out and the core shadow begins: the
// first sampled distance whose ray falls back. It returns maxDeg+step
// if no fallback occurs within the sampled range.
func (t *Tracer) ShadowStart(wave WaveType, maxDeg float64, samples int) float64 {
	curve := t.TravelTimeCurve(wave, 0, maxDeg, samples)
	for _, pt := range curve {
		if pt.Kind == RayFallback {
			return pt.DistanceDeg
		}
	}
	step := maxDeg / float64(samples)
	return maxDeg + step
}
