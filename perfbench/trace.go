package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one op share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out at its end.
// Safe for concurrent use.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name their parent before the
// parent ends.
func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent int64, name string, req int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a new span and returns its duration.
func (t *tracer) timed(name string, parent, req int64, f func()) time.Duration {
	id := t.id()
	start := time.Now()
	f()
	end := time.Now()
	t.add(id, parent, name, req, start, end)
	return end.Sub(start)
}

// merge adds spans another process recorded, under fresh ids. Their
// times stay on that process's own clock, which only their durations
// and their nesting use.
func (t *tracer) merge(spans []span) {
	ids := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ids[s.ID] = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range spans {
		s.ID, s.Parent = ids[s.ID], ids[s.Parent]
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats summarizes the spans of one name, in microseconds.
type spanStats struct {
	Count     int     `json:"count"`
	P50us     float64 `json:"p50_us"`
	SelfP50us float64 `json:"self_p50_us"`
}

// summarize groups spans by name. A span's self time is its duration
// minus the part of it its children cover.
func summarize(spans []span) map[string]spanStats {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d/1e3)
		selfs[s.Name] = append(selfs[s.Name], (d-covered(s, children[s.ID]))/1e3)
	}
	out := map[string]spanStats{}
	for name, d := range durs {
		out[name] = spanStats{Count: len(d), P50us: median(d), SelfP50us: median(selfs[name])}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return float64(total)
}

// p50 returns the median duration of the named spans in the given
// unit (time.Microsecond or time.Millisecond), or 0 when none ran.
func p50(stats map[string]spanStats, name string, unit time.Duration) float64 {
	s, ok := stats[name]
	if !ok {
		return 0
	}
	return s.P50us * float64(time.Microsecond) / float64(unit)
}
