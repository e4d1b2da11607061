package platform

import (
	"errors"
	"fmt"
	"sort"
)

// This file generalizes the package's star model — every machine
// described only by its direct link to the root — to routed multi-hop
// topologies. The paper's testbed was two sites behind one VTHD link,
// so the star was exact; on a wider grid the root reaches a remote
// machine through a chain of links (LAN → metro → backbone → LAN), and
// several machines share those intermediate links.
//
// A Graph names the network nodes (sites), attaches machines to them,
// and lists undirected links with per-item cost and fixed latency.
// Routing is deterministic shortest-path by accumulated per-item cost
// (ties: fewer hops, then lexicographic path), so every rank's
// effective communication cost from the root is the sum over its
// route — which Flatten folds back into the familiar star Platform for
// the solvers, while the route structure itself feeds the fault
// compiler (simgrid.BuildNetPlan).

// Link is one undirected network edge between two nodes.
type Link struct {
	// A, B are the endpoint node names.
	A string `json:"a"`
	B string `json:"b"`
	// Alpha is the per-item transfer cost in seconds across this link.
	Alpha float64 `json:"alpha"`
	// Latency is the fixed per-message cost in seconds.
	Latency float64 `json:"latency,omitempty"`
}

// Node is one network location (a site, a router, a LAN) with the
// machines attached there. Transit nodes carry no machines.
type Node struct {
	// Name identifies the node; links and faults refer to it.
	Name string `json:"name"`
	// Machines are the computers attached at this node. Their Alpha /
	// CommLatency fields describe only the local attachment cost; the
	// route to the root adds the rest.
	Machines []Machine `json:"machines,omitempty"`
}

// Graph is a routed multi-hop platform description.
type Graph struct {
	// Name identifies the graph in reports.
	Name string `json:"name"`
	// Nodes lists the network locations.
	Nodes []Node `json:"nodes"`
	// Links lists the undirected edges.
	Links []Link `json:"links"`
	// Root names the machine holding the input data.
	Root string `json:"root"`
}

// Validate checks structural consistency: unique node and machine
// names, links between existing distinct nodes with non-negative
// costs, and a root machine that exists.
func (g Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return errors.New("platform: graph has no nodes")
	}
	nodes := map[string]bool{}
	machines := map[string]bool{}
	rootFound := false
	for _, n := range g.Nodes {
		if n.Name == "" {
			return errors.New("platform: graph node without a name")
		}
		if nodes[n.Name] {
			return fmt.Errorf("platform: duplicate graph node %s", n.Name)
		}
		nodes[n.Name] = true
		for _, m := range n.Machines {
			if err := m.Validate(); err != nil {
				return err
			}
			if machines[m.Name] {
				return fmt.Errorf("platform: duplicate machine %s", m.Name)
			}
			machines[m.Name] = true
			if m.Name == g.Root {
				rootFound = true
			}
		}
	}
	for _, l := range g.Links {
		if !nodes[l.A] || !nodes[l.B] {
			return fmt.Errorf("platform: link %s-%s references an unknown node", l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("platform: link %s-%s is a self loop", l.A, l.B)
		}
		if l.Alpha < 0 || l.Latency < 0 {
			return fmt.Errorf("platform: link %s-%s has negative parameters", l.A, l.B)
		}
	}
	if g.Root == "" {
		return errors.New("platform: graph has no root machine")
	}
	if !rootFound {
		return fmt.Errorf("platform: root machine %s not attached to any node", g.Root)
	}
	return nil
}

// NodeOf returns the name of the node hosting the given machine.
func (g Graph) NodeOf(machine string) (string, bool) {
	for _, n := range g.Nodes {
		for _, m := range n.Machines {
			if m.Name == machine {
				return n.Name, true
			}
		}
	}
	return "", false
}

// RootNode returns the node hosting the root machine.
func (g Graph) RootNode() (string, error) {
	n, ok := g.NodeOf(g.Root)
	if !ok {
		return "", fmt.Errorf("platform: root machine %s not attached to any node", g.Root)
	}
	return n, nil
}

// Route is a shortest path through the graph with its accumulated
// costs.
type Route struct {
	// Path lists the node names from source to destination inclusive.
	Path []string
	// Alpha is the summed per-item cost over the path's links.
	Alpha float64
	// Latency is the summed fixed cost over the path's links.
	Latency float64
}

// UsesLink reports whether the route traverses the undirected link
// a-b.
func (r Route) UsesLink(a, b string) bool {
	for i := 0; i+1 < len(r.Path); i++ {
		if (r.Path[i] == a && r.Path[i+1] == b) || (r.Path[i] == b && r.Path[i+1] == a) {
			return true
		}
	}
	return false
}

// pathLess orders candidate equal-cost paths: fewer hops first, then
// lexicographically. This is the routing tie-break that keeps every
// run of Dijkstra bit-identical.
func pathLess(a, b []string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// RoutesFrom computes deterministic shortest routes from the source
// node to every reachable node, weighted by per-item cost (Alpha),
// with ties broken by hop count and then lexicographic path. Parallel
// links between the same node pair collapse to the cheapest.
func (g Graph) RoutesFrom(src string) (map[string]Route, error) {
	found := false
	names := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		names = append(names, n.Name)
		if n.Name == src {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("platform: unknown route source %s", src)
	}
	sort.Strings(names)

	type edge struct {
		to             string
		alpha, latency float64
	}
	best := map[string]map[string]edge{}
	addDir := func(from, to string, l Link) {
		if best[from] == nil {
			best[from] = map[string]edge{}
		}
		if e, ok := best[from][to]; !ok || l.Alpha < e.alpha || (l.Alpha == e.alpha && l.Latency < e.latency) {
			best[from][to] = edge{to: to, alpha: l.Alpha, latency: l.Latency}
		}
	}
	for _, l := range g.Links {
		addDir(l.A, l.B, l)
		addDir(l.B, l.A, l)
	}

	routes := map[string]Route{src: {Path: []string{src}}}
	done := map[string]bool{}
	// O(V²) selection keeps the scan order (sorted names) explicit and
	// deterministic; graphs here are tens of nodes at most.
	for range names {
		cur := ""
		for _, n := range names {
			if done[n] {
				continue
			}
			r, ok := routes[n]
			if !ok {
				continue
			}
			if cur == "" {
				cur = n
				continue
			}
			c := routes[cur]
			if r.Alpha < c.Alpha || (r.Alpha == c.Alpha && pathLess(r.Path, c.Path)) {
				cur = n
			}
		}
		if cur == "" {
			break
		}
		done[cur] = true
		curRoute := routes[cur]
		nbs := make([]string, 0, len(best[cur]))
		for to := range best[cur] {
			nbs = append(nbs, to)
		}
		sort.Strings(nbs)
		for _, to := range nbs {
			e := best[cur][to]
			cand := Route{
				Path:    append(append([]string{}, curRoute.Path...), to),
				Alpha:   curRoute.Alpha + e.alpha,
				Latency: curRoute.Latency + e.latency,
			}
			old, ok := routes[to]
			if !ok || cand.Alpha < old.Alpha || (cand.Alpha == old.Alpha && pathLess(cand.Path, old.Path)) {
				routes[to] = cand
			}
		}
	}
	return routes, nil
}

// Routes computes the routing table from the root's node.
func (g Graph) Routes() (map[string]Route, error) {
	root, err := g.RootNode()
	if err != nil {
		return nil, err
	}
	return g.RoutesFrom(root)
}

// NodeAdjacency returns each node's directly linked neighbors, sorted,
// deduplicated.
func (g Graph) NodeAdjacency() map[string][]string {
	adj := map[string]map[string]bool{}
	for _, n := range g.Nodes {
		adj[n.Name] = map[string]bool{}
	}
	for _, l := range g.Links {
		if adj[l.A] == nil || adj[l.B] == nil {
			continue
		}
		adj[l.A][l.B] = true
		adj[l.B][l.A] = true
	}
	out := make(map[string][]string, len(adj))
	for n, set := range adj {
		nbs := make([]string, 0, len(set))
		for nb := range set {
			nbs = append(nbs, nb)
		}
		sort.Strings(nbs)
		out[n] = nbs
	}
	return out
}

// Flatten folds the routed graph back into the star Platform the
// solvers consume: each machine's effective Alpha / CommLatency is its
// local attachment cost plus the accumulated cost of the shortest
// route from the root's node to its node. Machines are listed in node
// order, root machine's node first (so Platform.Processors keeps the
// paper's root-last convention after its own rotation). Machines on
// nodes unreachable from the root are an error.
func (g Graph) Flatten() (Platform, error) {
	if err := g.Validate(); err != nil {
		return Platform{}, err
	}
	routes, err := g.Routes()
	if err != nil {
		return Platform{}, err
	}
	rootNode, err := g.RootNode()
	if err != nil {
		return Platform{}, err
	}
	p := Platform{Name: g.Name, Root: g.Root}
	order := make([]Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == rootNode {
			order = append([]Node{n}, order...)
		} else {
			order = append(order, n)
		}
	}
	for _, n := range order {
		r, ok := routes[n.Name]
		if !ok {
			if len(n.Machines) == 0 {
				continue // unreachable transit node: harmless
			}
			return Platform{}, fmt.Errorf("platform: node %s (with machines) unreachable from root node %s", n.Name, rootNode)
		}
		for _, m := range n.Machines {
			m.Site = n.Name
			if m.Name != g.Root {
				m.Alpha += r.Alpha
				m.CommLatency += r.Latency
			} else {
				m.Alpha = 0
				m.CommLatency = 0
			}
			p.Machines = append(p.Machines, m)
		}
	}
	return p, nil
}

// ProcessorNodes returns, for each rank produced by Flatten().
// Processors() (root last), the name of the graph node hosting it.
// This is the rank→node map the fault compiler and the diffusion
// adjacency builder key on.
func (g Graph) ProcessorNodes() ([]string, error) {
	p, err := g.Flatten()
	if err != nil {
		return nil, err
	}
	var nodes []string
	var rootNode string
	for _, m := range p.Machines {
		for k := 0; k < m.CPUs; k++ {
			if m.Name == p.Root && k == 0 {
				rootNode = m.Site
				continue
			}
			nodes = append(nodes, m.Site)
		}
	}
	return append(nodes, rootNode), nil
}

// RankAdjacency builds the rank-level diffusion adjacency from a
// rank→node map and the graph's links: two ranks are adjacent when
// they share a node or their nodes are directly linked.
func (g Graph) RankAdjacency(rankNodes []string) [][]int {
	nodeAdj := g.NodeAdjacency()
	linked := func(a, b string) bool {
		if a == b {
			return true
		}
		for _, nb := range nodeAdj[a] {
			if nb == b {
				return true
			}
		}
		return false
	}
	adj := make([][]int, len(rankNodes))
	for i := range rankNodes {
		for j := range rankNodes {
			if i != j && linked(rankNodes[i], rankNodes[j]) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}
