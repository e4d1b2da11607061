package simgrid

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/platform"
)

// This file hosts the fault compiler BuildNetPlan: simgrid is the one
// package that may see both platform (topology) and fault (windows)
// without an import cycle, so this is where site-level network faults
// on a routed platform.Graph are lowered to the rank-pair NetPlan the
// MPI runtime consumes.

// linkKey canonicalizes an undirected node pair for route maps.
func linkKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// BuildNetPlan lowers site-level network faults to the rank-pair
// NetPlan consumed by the MPI runtime. rankNodes maps each rank to its
// graph node (Graph.ProcessorNodes order, root last). The lowering is
// route-aware:
//
//   - a link fault (degrade or flap) affects every rank pair whose
//     static route crosses that link;
//   - a partition cuts every rank pair whose nodes fall into
//     different components once the partitioned site's links are
//     removed — including pairs merely routed through the site;
//     co-located ranks are never cut.
func BuildNetPlan(g platform.Graph, rankNodes []string, faults []fault.NetFault) (*fault.NetPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	np := fault.NewNetPlan()
	if len(faults) == 0 {
		return np, nil
	}
	// All-pairs static routes between the nodes that actually host
	// ranks.
	hosts := map[string]bool{}
	for _, n := range rankNodes {
		if n == "" {
			return nil, fmt.Errorf("simgrid: empty rank node name")
		}
		hosts[n] = true
	}
	routeOf := map[string]platform.Route{}
	for src := range hosts {
		rts, err := g.RoutesFrom(src)
		if err != nil {
			return nil, err
		}
		for dst := range hosts {
			if r, ok := rts[dst]; ok {
				routeOf[linkKey(src, dst)] = r
			}
		}
	}
	pairRoute := func(a, b int) (platform.Route, bool) {
		r, ok := routeOf[linkKey(rankNodes[a], rankNodes[b])]
		return r, ok
	}

	for _, f := range faults {
		if err := f.Validate(); err != nil {
			return nil, err
		}
		switch f.Kind {
		case fault.LinkDegrade, fault.LinkFlap:
			for a := 0; a < len(rankNodes); a++ {
				for b := a + 1; b < len(rankNodes); b++ {
					r, ok := pairRoute(a, b)
					if !ok || !r.UsesLink(f.EdgeA, f.EdgeB) {
						continue
					}
					if f.Kind == fault.LinkDegrade {
						np.AddSlow(a, b, fault.FactorWindow{
							Window: fault.Window{Start: f.Start, End: f.End},
							Factor: f.Factor,
						})
					} else {
						for _, w := range f.DownWindows() {
							np.AddCut(a, b, w)
						}
					}
				}
			}
		case fault.Partition:
			comp := componentsWithout(g, f.Site)
			for a := 0; a < len(rankNodes); a++ {
				for b := a + 1; b < len(rankNodes); b++ {
					na, nb := rankNodes[a], rankNodes[b]
					if na == nb {
						continue // co-located: the site's LAN survives
					}
					if comp[na] != comp[nb] {
						np.AddCut(a, b, fault.Window{Start: f.Start, End: f.End})
					}
				}
			}
		}
	}
	return np, nil
}

// componentsWithout labels each node with a connected-component id
// after removing every link touching the given site. The site keeps
// its own label, so ranks on the partitioned site stay mutually
// reachable while everyone else loses them.
func componentsWithout(g platform.Graph, site string) map[string]int {
	names := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	adj := map[string][]string{}
	for _, l := range g.Links {
		if l.A == site || l.B == site {
			continue
		}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	comp := map[string]int{}
	id := 0
	for _, start := range names {
		if _, seen := comp[start]; seen {
			continue
		}
		id++
		queue := []string{start}
		comp[start] = id
		for q := 0; q < len(queue); q++ {
			nbs := append([]string{}, adj[queue[q]]...)
			sort.Strings(nbs)
			for _, nb := range nbs {
				if _, seen := comp[nb]; !seen {
					comp[nb] = id
					queue = append(queue, nb)
				}
			}
		}
	}
	return comp
}
