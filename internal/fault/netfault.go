package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file extends the fault model from rank-level failures (crashes,
// per-rank link windows) to network-level degradation on routed
// multi-hop platforms: an inter-site edge whose bandwidth is cut or
// latency spikes, a link that flaps up and down, and full site
// partitions that heal — the site drops off and rejoins mid-scatter.
//
// A NetFault is declared against the platform graph (edges and sites by
// name). Because the runtime is rank-indexed, the declaration is
// compiled — by simgrid.BuildNetPlan, which owns the routing tables —
// into a NetPlan holding, for every ordered rank pair, the windows
// during which the pair is unreachable (partition, flap-down) and the
// windows during which transfers between them are slowed (degrade).
// The compiled plan is a pure value: every query is deterministic, so
// degraded-network scenarios replay identically from a seed, exactly
// like the rank-level Plan.

// NetKind classifies a network-level fault.
type NetKind int

const (
	// LinkDegrade multiplies the duration of transfers routed over the
	// edge by Factor during [Start, End) — a bandwidth cut or latency
	// spike on one physical link.
	LinkDegrade NetKind = iota
	// LinkFlap takes the edge fully down for the first Duty fraction of
	// every Period inside [Start, End): transfers routed over it during
	// a down phase are lost and must be retried.
	LinkFlap
	// Partition cuts the named site off from the rest of the platform
	// during [Start, End): every transfer crossing the site boundary is
	// lost. End is the heal instant — the site rejoins and transfers
	// flow again.
	Partition
)

// String names the kind.
func (k NetKind) String() string {
	switch k {
	case LinkDegrade:
		return "link-degrade"
	case LinkFlap:
		return "link-flap"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("netkind(%d)", int(k))
	}
}

// NetFault is one network-level fault, declared against the platform
// graph's names.
type NetFault struct {
	// Kind classifies the fault.
	Kind NetKind
	// EdgeA and EdgeB name the endpoints of the afflicted edge
	// (LinkDegrade, LinkFlap); order is irrelevant.
	EdgeA, EdgeB string
	// Site names the partitioned site (Partition).
	Site string
	// Start and End bound the fault window in virtual seconds; End is
	// the heal instant for partitions.
	Start, End float64
	// Factor is the transfer-duration multiplier of a LinkDegrade
	// fault; it must be >= 1.
	Factor float64
	// Period and Duty shape a LinkFlap: the edge is down for the first
	// Duty fraction (in (0, 1)) of every Period seconds inside the
	// window.
	Period, Duty float64
}

// Validate checks one network fault's invariants.
func (f NetFault) Validate() error {
	if math.IsNaN(f.Start) || f.Start < 0 || math.IsNaN(f.End) || f.End <= f.Start {
		return fmt.Errorf("fault: %s window [%g, %g) is empty or inverted", f.Kind, f.Start, f.End)
	}
	switch f.Kind {
	case LinkDegrade:
		if f.EdgeA == "" || f.EdgeB == "" {
			return fmt.Errorf("fault: %s without edge endpoints", f.Kind)
		}
		if math.IsNaN(f.Factor) || f.Factor < 1 {
			return fmt.Errorf("fault: %s factor %g on edge %s-%s, want >= 1", f.Kind, f.Factor, f.EdgeA, f.EdgeB)
		}
		return nil
	case LinkFlap:
		if f.EdgeA == "" || f.EdgeB == "" {
			return fmt.Errorf("fault: %s without edge endpoints", f.Kind)
		}
		if math.IsNaN(f.Period) || f.Period <= 0 {
			return fmt.Errorf("fault: %s period %g on edge %s-%s, want > 0", f.Kind, f.Period, f.EdgeA, f.EdgeB)
		}
		if math.IsNaN(f.Duty) || f.Duty <= 0 || f.Duty >= 1 {
			return fmt.Errorf("fault: %s duty %g on edge %s-%s, want in (0, 1)", f.Kind, f.Duty, f.EdgeA, f.EdgeB)
		}
		return nil
	case Partition:
		if f.Site == "" {
			return fmt.Errorf("fault: partition without a site")
		}
		return nil
	default:
		return fmt.Errorf("fault: unknown net kind %d", int(f.Kind))
	}
}

// DownWindows expands a flap into its down phases, clipped to the flap
// window. A degrade or partition expands to its single window.
func (f NetFault) DownWindows() []Window {
	if f.Kind != LinkFlap {
		return []Window{{Start: f.Start, End: f.End}}
	}
	var out []Window
	for t := f.Start; t < f.End; t += f.Period {
		end := t + f.Duty*f.Period
		if end > f.End {
			end = f.End
		}
		out = append(out, Window{Start: t, End: end})
	}
	return out
}

// Window is a half-open interval of virtual time.
type Window struct {
	Start, End float64
}

// FactorWindow is a window with a transfer-duration multiplier.
type FactorWindow struct {
	Window
	Factor float64
}

// netPair is an unordered rank pair (lo < hi).
type netPair struct{ lo, hi int }

func mkPair(a, b int) netPair {
	if a > b {
		a, b = b, a
	}
	return netPair{a, b}
}

// NetPlan is the rank-level compilation of a set of network faults: per
// unordered rank pair, the windows in which the pair is unreachable and
// the windows in which transfers between them run slow. The zero of
// the type — and a nil *NetPlan — reports a perfect network.
type NetPlan struct {
	cuts  map[netPair][]Window
	slows map[netPair][]FactorWindow
}

// NewNetPlan creates an empty compiled plan.
func NewNetPlan() *NetPlan {
	return &NetPlan{
		cuts:  make(map[netPair][]Window),
		slows: make(map[netPair][]FactorWindow),
	}
}

// AddCut records that the pair (a, b) is mutually unreachable during
// the window.
func (np *NetPlan) AddCut(a, b int, w Window) {
	if w.End <= w.Start || a == b {
		return
	}
	p := mkPair(a, b)
	np.cuts[p] = append(np.cuts[p], w)
	sort.Slice(np.cuts[p], func(i, j int) bool { return np.cuts[p][i].Start < np.cuts[p][j].Start })
}

// AddSlow records that transfers between a and b starting inside the
// window take factor times longer.
func (np *NetPlan) AddSlow(a, b int, w FactorWindow) {
	if w.End <= w.Start || w.Factor <= 1 || a == b {
		return
	}
	p := mkPair(a, b)
	np.slows[p] = append(np.slows[p], w)
	sort.Slice(np.slows[p], func(i, j int) bool { return np.slows[p][i].Start < np.slows[p][j].Start })
}

// HasFaults reports whether the plan cuts or slows anything at all.
func (np *NetPlan) HasFaults() bool {
	return np != nil && (len(np.cuts) > 0 || len(np.slows) > 0)
}

// Reachable reports whether a and b can exchange a transfer at time at.
func (np *NetPlan) Reachable(a, b int, at float64) bool {
	if np == nil || a == b {
		return true
	}
	for _, w := range np.cuts[mkPair(a, b)] {
		if at >= w.Start && at < w.End {
			return false
		}
	}
	return true
}

// CutDuring reports whether a transfer between a and b spanning
// [start, end] overlaps an unreachability window — i.e. whether the
// send is lost to the network.
func (np *NetPlan) CutDuring(a, b int, start, end float64) bool {
	if np == nil || a == b {
		return false
	}
	for _, w := range np.cuts[mkPair(a, b)] {
		if w.Start <= end && start < w.End {
			return true
		}
	}
	return false
}

// Slowdown returns the transfer-duration multiplier for a transfer
// between a and b starting at time at: the product of the active
// degrade factors, 1 when none applies.
func (np *NetPlan) Slowdown(a, b int, at float64) float64 {
	if np == nil || a == b {
		return 1
	}
	factor := 1.0
	for _, w := range np.slows[mkPair(a, b)] {
		if at >= w.Start && at < w.End {
			factor *= w.Factor
		}
	}
	return factor
}

// Healed reports whether every unreachability window of the plan has
// passed by time at — the network is whole again.
func (np *NetPlan) Healed(at float64) bool {
	if np == nil {
		return true
	}
	for _, ws := range np.cuts {
		for _, w := range ws {
			if at < w.End {
				return false
			}
		}
	}
	return true
}

// RandomNetConfig parameterizes a seeded random network-fault schedule
// over a platform's sites and inter-site edges.
type RandomNetConfig struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// Sites are the candidate partition victims; RootSite, when
	// non-empty, is exempt so the data holder's own site stays attached
	// (set it empty to allow root isolation).
	Sites    []string
	RootSite string
	// Edges are the candidate degrade/flap victims, as endpoint pairs.
	Edges [][2]string
	// Horizon bounds all fault windows.
	Horizon float64
	// PartitionProb, DegradeProb and FlapProb are the per-site /
	// per-edge probabilities of each fault kind.
	PartitionProb, DegradeProb, FlapProb float64
	// MaxFactor bounds degrade factors, drawn in [1.5, MaxFactor].
	MaxFactor float64
}

// RandomNet draws a deterministic network-fault schedule from the
// config. Two calls with the same config return identical schedules.
func RandomNet(cfg RandomNetConfig) []NetFault {
	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	maxFactor := math.Max(cfg.MaxFactor, 1.5)
	var faults []NetFault
	for _, site := range cfg.Sites {
		if site == cfg.RootSite {
			continue
		}
		if rng.Float64() < cfg.PartitionProb {
			start := rng.Float64() * 0.6 * horizon
			faults = append(faults, NetFault{
				Kind: Partition, Site: site,
				Start: start,
				End:   start + (0.1+0.4*rng.Float64())*horizon,
			})
		}
	}
	for _, e := range cfg.Edges {
		switch {
		case rng.Float64() < cfg.DegradeProb:
			start := rng.Float64() * 0.6 * horizon
			faults = append(faults, NetFault{
				Kind: LinkDegrade, EdgeA: e[0], EdgeB: e[1],
				Start:  start,
				End:    start + (0.1+0.4*rng.Float64())*horizon,
				Factor: 1.5 + (maxFactor-1.5)*rng.Float64(),
			})
		case rng.Float64() < cfg.FlapProb:
			start := rng.Float64() * 0.6 * horizon
			faults = append(faults, NetFault{
				Kind: LinkFlap, EdgeA: e[0], EdgeB: e[1],
				Start:  start,
				End:    start + (0.2+0.4*rng.Float64())*horizon,
				Period: (0.02 + 0.08*rng.Float64()) * horizon,
				Duty:   0.2 + 0.4*rng.Float64(),
			})
		}
	}
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].Start < faults[j].Start })
	return faults
}
