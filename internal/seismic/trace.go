package seismic

import (
	"math"
)

// RayKind classifies how a ray was traced.
type RayKind uint8

const (
	// RayTurning is a ray that dives, turns at depth, and comes back
	// up (the normal teleseismic case).
	RayTurning RayKind = iota
	// RayDirect is an upgoing-only ray from a deep source to a nearby
	// captor.
	RayDirect
	// RayFallback marks a ray outside the model's tractable range
	// (e.g. core-grazing); its time is a straight-chord estimate.
	RayFallback
)

// String names the ray kind.
func (k RayKind) String() string {
	switch k {
	case RayTurning:
		return "turning"
	case RayDirect:
		return "direct"
	case RayFallback:
		return "fallback"
	default:
		return "unknown"
	}
}

// Ray is the result of tracing one event.
type Ray struct {
	// Kind classifies the ray.
	Kind RayKind
	// TravelTime is the modeled travel time in seconds.
	TravelTime float64
	// Param is the ray parameter p = r*sin(i)/v in s/rad (0 for
	// fallback rays).
	Param float64
	// TurnRadius is the turning-point radius in km (turning rays).
	TurnRadius float64
	// Distance echoes the epicentral distance in radians.
	Distance float64
	// LayerTimes holds the time spent in each model layer (indexed
	// like EarthModel.Layers), the sensitivity row a tomographic
	// inversion needs.
	LayerTimes []float64
}

// Tracer traces rays through a (refined) earth model. It precomputes
// the shells usable by each wave type. A Tracer is safe for concurrent
// use (it is read-only after construction).
type Tracer struct {
	model EarthModel
	// usable[w] is the number of leading (outermost) layers a wave of
	// type w can propagate through before hitting a fluid layer or the
	// core-mantle boundary; rays must turn above that depth.
	usable [2]int
	// bisectionSteps controls the two-point solve accuracy.
	bisectionSteps int
}

// NewTracer builds a tracer for the model. Resolution (in km) refines
// the model's shells; pass 0 to keep the model as is.
func NewTracer(model EarthModel, resolutionKm float64) (*Tracer, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	refined := model.Refine(resolutionKm)
	t := &Tracer{model: refined, bisectionSteps: 48}
	for w := 0; w < 2; w++ {
		wave := WaveType(w)
		count := 0
		for _, l := range refined.Layers {
			// Stop at the outer core: fluid for S, and a low-velocity
			// zone for P that breaks eta-monotonicity (core shadow).
			if l.velocity(wave) <= 0 || l.Name == "outer core" || hasPrefix(l.Name, "outer core") {
				break
			}
			count++
		}
		t.usable[w] = count
	}
	return t, nil
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Layers returns the number of shells in the refined model.
func (t *Tracer) Layers() int { return len(t.model.Layers) }

// legSpec describes one integration leg: from radius rTop down to
// rBottom (rTop >= rBottom).
type legSpec struct{ rTop, rBottom float64 }

// deltaAndTime integrates the epicentral distance (rad) and travel
// time (s) of a ray with parameter p along the legs, accumulating
// per-layer times into layerTimes when non-nil. It returns ok=false if
// the ray cannot propagate (p exceeds eta somewhere above the turning
// point, i.e. total reflection inside the stack).
func (t *Tracer) deltaAndTime(p float64, wave WaveType, legs []legSpec, layerTimes []float64) (delta, time float64, ok bool) {
	usable := t.usable[wave]
	for _, leg := range legs {
		for li := 0; li < usable; li++ {
			l := t.model.Layers[li]
			v := l.velocity(wave)
			rU := math.Min(leg.rTop, l.OuterRadius)
			rL := math.Max(leg.rBottom, l.InnerRadius)
			if rU <= rL {
				continue
			}
			a := p * v // radius at which this shell's eta equals p
			if a >= rU {
				// The ray cannot reach this shell segment at all.
				return 0, 0, false
			}
			if a > rL {
				rL = a // the ray turns inside this shell
			}
			// Closed forms for a constant-velocity shell:
			//   d(delta) = acos(a/rU) - acos(a/rL)
			//   d(time)  = (sqrt(rU^2-a^2) - sqrt(rL^2-a^2)) / v
			dDelta := math.Acos(clamp1(a/rU)) - math.Acos(clamp1(a/rL))
			dTime := (math.Sqrt(rU*rU-a*a) - math.Sqrt(math.Max(0, rL*rL-a*a))) / v
			delta += dDelta
			time += dTime
			if layerTimes != nil {
				layerTimes[li] += dTime
			}
		}
	}
	return delta, time, true
}

func clamp1(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// turningRadius returns where a ray of parameter p turns, searched
// from the surface down through the usable shells: the radius at which
// eta(r) = p when one exists inside a shell, or the top of the first
// shell the ray cannot enter (p exceeds the shell's surface eta —
// total reflection at a velocity discontinuity). ok=false means the
// ray dives below the usable stack.
func (t *Tracer) turningRadius(p float64, wave WaveType) (float64, bool) {
	for li := 0; li < t.usable[wave]; li++ {
		l := t.model.Layers[li]
		v := l.velocity(wave)
		rt := p * v
		if rt > l.OuterRadius {
			// The ray cannot penetrate this shell: it reflects off
			// the interface (p lies in an eta gap between layers).
			// The outermost layer cannot reject a ray this way:
			// callers cap p below the source/surface eta.
			return l.OuterRadius, true
		}
		if rt >= l.InnerRadius {
			return rt, true
		}
	}
	return 0, false
}

// etaAt returns r/v at the given radius.
func (t *Tracer) etaAt(r float64, wave WaveType) float64 {
	v := t.model.VelocityAt(r, wave)
	if v <= 0 {
		return 0
	}
	return r / v
}

// minUsableEta returns eta at the bottom of the usable stack, the
// smallest ray parameter that still turns inside it.
func (t *Tracer) minUsableEta(wave WaveType) float64 {
	u := t.usable[wave]
	if u == 0 {
		return 0
	}
	bottom := t.model.Layers[u-1]
	return bottom.InnerRadius / bottom.velocity(wave)
}

// Trace solves the two-point problem for one event: find the ray
// parameter whose ray connects the hypocenter to the captor, and
// report its travel time. Events whose geometry falls outside the
// tractable range (core-grazing paths, exotic geometries) produce a
// RayFallback result with a straight-chord travel-time estimate, so
// every event costs roughly the same and the computation never fails —
// matching the paper's setting where every ray is traced.
func (t *Tracer) Trace(ev Event) Ray {
	wave := ev.Wave
	delta := ev.Distance()
	rs := EarthRadiusKm - ev.SrcDepthKm
	if rs < 0 {
		rs = 0
	}
	ray := Ray{Distance: delta, LayerTimes: make([]float64, len(t.model.Layers))}

	if t.usable[wave] == 0 || rs <= t.bottomUsableRadius(wave) {
		return t.fallback(ev, ray)
	}

	// Branch 1: direct upgoing ray (deep source, nearby captor).
	// Delta grows with p on this branch; its maximum is at p just
	// below eta(source).
	etaSrc := t.etaAt(rs, wave)
	upLegs := []legSpec{{rTop: EarthRadiusKm, rBottom: rs}}
	maxUpP := etaSrc * (1 - 1e-9)
	maxUpDelta, _, okUp := t.deltaAndTime(maxUpP, wave, upLegs, nil)
	if ev.SrcDepthKm > 0 && okUp && delta <= maxUpDelta {
		p := t.bisect(delta, wave, upLegs, 0, maxUpP, false)
		clear(ray.LayerTimes)
		d, time, ok := t.deltaAndTime(p, wave, upLegs, ray.LayerTimes)
		if ok && math.Abs(d-delta) < 1e-3+1e-3*delta {
			ray.Kind = RayDirect
			ray.TravelTime = time
			ray.Param = p
			ray.TurnRadius = rs
			return ray
		}
	}

	// Branch 2: turning ray. Delta shrinks as p grows (steeper rays
	// turn shallower in a model whose velocity rises with depth), so
	// bisect with inverted monotonicity on p in [pMin, pMax].
	pMin := t.minUsableEta(wave) * (1 + 1e-9)
	pMax := etaSrc * (1 - 1e-9)
	if pMin >= pMax {
		return t.fallback(ev, ray)
	}
	turnLegs := func(p float64) ([]legSpec, bool) {
		rt, ok := t.turningRadius(p, wave)
		if !ok {
			return nil, false
		}
		return []legSpec{
			{rTop: EarthRadiusKm, rBottom: rt}, // captor leg
			{rTop: rs, rBottom: rt},            // source leg
		}, true
	}
	legsMin, okMin := turnLegs(pMin)
	if !okMin {
		return t.fallback(ev, ray)
	}
	maxDelta, _, ok := t.deltaAndTime(pMin, wave, legsMin, nil)
	if !ok || delta > maxDelta {
		// Beyond the deepest mantle-turning ray: core shadow.
		return t.fallback(ev, ray)
	}

	lo, hi := pMin, pMax
	for i := 0; i < t.bisectionSteps; i++ {
		mid := (lo + hi) / 2
		legs, okLegs := turnLegs(mid)
		if !okLegs {
			hi = mid
			continue
		}
		d, _, okD := t.deltaAndTime(mid, wave, legs, nil)
		if !okD || d > delta {
			lo = mid // ray too deep (delta too large): increase p
		} else {
			hi = mid
		}
	}
	p := (lo + hi) / 2
	legs, okLegs := turnLegs(p)
	if !okLegs {
		return t.fallback(ev, ray)
	}
	clear(ray.LayerTimes)
	d, time, okD := t.deltaAndTime(p, wave, legs, ray.LayerTimes)
	if !okD || math.Abs(d-delta) > 1e-2+1e-2*delta {
		return t.fallback(ev, ray)
	}
	rt, _ := t.turningRadius(p, wave)
	ray.Kind = RayTurning
	ray.TravelTime = time
	ray.Param = p
	ray.TurnRadius = rt
	return ray
}

// bisect solves deltaAndTime(p) = target on a branch where delta is
// increasing in p (invert=false) over [lo, hi].
func (t *Tracer) bisect(target float64, wave WaveType, legs []legSpec, lo, hi float64, invert bool) float64 {
	for i := 0; i < t.bisectionSteps; i++ {
		mid := (lo + hi) / 2
		d, _, ok := t.deltaAndTime(mid, wave, legs, nil)
		smaller := !ok || d < target
		if invert {
			smaller = !smaller
		}
		if smaller {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// bottomUsableRadius is the inner radius of the deepest usable shell.
func (t *Tracer) bottomUsableRadius(wave WaveType) float64 {
	u := t.usable[wave]
	if u == 0 {
		return EarthRadiusKm
	}
	return t.model.Layers[u-1].InnerRadius
}

// fallback estimates a straight-chord travel time at the average
// mantle velocity, spreading the time across the crossed layers
// proportionally to path length.
func (t *Tracer) fallback(ev Event, ray Ray) Ray {
	rs := EarthRadiusKm - ev.SrcDepthKm
	// Chord length between the two 3-D points.
	x1, y1, z1 := sphToCart(rs, ev.SrcLat, ev.SrcLon)
	x2, y2, z2 := sphToCart(EarthRadiusKm, ev.CapLat, ev.CapLon)
	chord := math.Sqrt((x1-x2)*(x1-x2) + (y1-y2)*(y1-y2) + (z1-z2)*(z1-z2))
	v := t.averageVelocity(ev.Wave)
	ray.Kind = RayFallback
	if v > 0 {
		ray.TravelTime = chord / v
	}
	// Attribute everything to the outermost layer; fallback rays are
	// excluded from inversions anyway.
	if len(ray.LayerTimes) > 0 {
		clear(ray.LayerTimes)
		ray.LayerTimes[0] = ray.TravelTime
	}
	return ray
}

func sphToCart(r, lat, lon float64) (x, y, z float64) {
	return r * math.Cos(lat) * math.Cos(lon),
		r * math.Cos(lat) * math.Sin(lon),
		r * math.Sin(lat)
}

// averageVelocity is the thickness-weighted mean velocity of the usable
// shells (or of all solid shells when the wave has no usable stack).
func (t *Tracer) averageVelocity(wave WaveType) float64 {
	var sum, weight float64
	count := t.usable[wave]
	if count == 0 {
		count = len(t.model.Layers)
	}
	for li := 0; li < count; li++ {
		l := t.model.Layers[li]
		v := l.velocity(wave)
		if v <= 0 {
			continue
		}
		th := l.OuterRadius - l.InnerRadius
		sum += v * th
		weight += th
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// TraceAll traces every event and returns the rays.
func (t *Tracer) TraceAll(events []Event) []Ray {
	rays := make([]Ray, len(events))
	for i, ev := range events {
		rays[i] = t.Trace(ev)
	}
	return rays
}
