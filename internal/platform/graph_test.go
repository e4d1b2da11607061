package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// chainGraph builds root(siteA) - siteB - siteC with one machine per
// site and simple costs for hand-checking routes.
func chainGraph() Graph {
	return Graph{
		Name: "chain",
		Nodes: []Node{
			{Name: "siteA", Machines: []Machine{{Name: "rootm", CPUs: 1, Beta: 0.01}}},
			{Name: "siteB", Machines: []Machine{{Name: "mb", CPUs: 1, Beta: 0.01, Alpha: 1e-5}}},
			{Name: "siteC", Machines: []Machine{{Name: "mc", CPUs: 2, Beta: 0.02, Alpha: 2e-5}}},
		},
		Links: []Link{
			{A: "siteA", B: "siteB", Alpha: 1e-4, Latency: 1e-3},
			{A: "siteB", B: "siteC", Alpha: 2e-4, Latency: 2e-3},
		},
		Root: "rootm",
	}
}

func TestGraphValidate(t *testing.T) {
	if err := chainGraph().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Graph)
	}{
		{"no nodes", func(g *Graph) { g.Nodes = nil }},
		{"dup node", func(g *Graph) { g.Nodes[1].Name = "siteA" }},
		{"dup machine", func(g *Graph) { g.Nodes[1].Machines[0].Name = "rootm" }},
		{"unknown link end", func(g *Graph) { g.Links[0].B = "nowhere" }},
		{"self link", func(g *Graph) { g.Links[0].B = "siteA" }},
		{"negative alpha", func(g *Graph) { g.Links[0].Alpha = -1 }},
		{"no root", func(g *Graph) { g.Root = "" }},
		{"missing root", func(g *Graph) { g.Root = "ghost" }},
	}
	for _, c := range cases {
		g := chainGraph()
		c.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGraphRoutes(t *testing.T) {
	g := chainGraph()
	routes, err := g.Routes()
	if err != nil {
		t.Fatal(err)
	}
	rc, ok := routes["siteC"]
	if !ok {
		t.Fatal("no route to siteC")
	}
	if want := []string{"siteA", "siteB", "siteC"}; len(rc.Path) != 3 || rc.Path[0] != want[0] || rc.Path[1] != want[1] || rc.Path[2] != want[2] {
		t.Errorf("route to siteC = %v, want %v", rc.Path, want)
	}
	if math.Abs(rc.Alpha-3e-4) > 1e-12 || math.Abs(rc.Latency-3e-3) > 1e-12 {
		t.Errorf("route costs = %g, %g; want 3e-4, 3e-3", rc.Alpha, rc.Latency)
	}
	if rc.Hops() != 2 || !rc.UsesLink("siteB", "siteA") || rc.UsesLink("siteA", "siteC") || !rc.UsesNode("siteB") {
		t.Errorf("route predicates wrong for %v", rc.Path)
	}
}

func TestGraphRoutesPickCheaperDetour(t *testing.T) {
	g := chainGraph()
	// A direct A-C link that is more expensive than the two-hop path
	// must lose; a cheaper one must win.
	g.Links = append(g.Links, Link{A: "siteA", B: "siteC", Alpha: 9e-4})
	routes, _ := g.Routes()
	if got := routes["siteC"].Hops(); got != 2 {
		t.Errorf("expensive shortcut taken: %v", routes["siteC"].Path)
	}
	g.Links[len(g.Links)-1].Alpha = 1e-5
	routes, _ = g.Routes()
	if got := routes["siteC"].Hops(); got != 1 {
		t.Errorf("cheap shortcut ignored: %v", routes["siteC"].Path)
	}
}

func TestGraphRoutesDeterministicTieBreak(t *testing.T) {
	// Two equal-cost paths root->x->dst and root->y->dst: the
	// lexicographically smaller path must win, every time.
	g := Graph{
		Name: "diamond",
		Nodes: []Node{
			{Name: "root", Machines: []Machine{{Name: "r", CPUs: 1, Beta: 0.01}}},
			{Name: "x"}, {Name: "y"},
			{Name: "dst", Machines: []Machine{{Name: "d", CPUs: 1, Beta: 0.01}}},
		},
		Links: []Link{
			{A: "root", B: "y", Alpha: 1e-4},
			{A: "root", B: "x", Alpha: 1e-4},
			{A: "y", B: "dst", Alpha: 1e-4},
			{A: "x", B: "dst", Alpha: 1e-4},
		},
		Root: "r",
	}
	for i := 0; i < 20; i++ {
		routes, err := g.Routes()
		if err != nil {
			t.Fatal(err)
		}
		p := routes["dst"].Path
		if len(p) != 3 || p[1] != "x" {
			t.Fatalf("run %d: tie broke to %v, want via x", i, p)
		}
	}
}

func TestGraphFlatten(t *testing.T) {
	g := chainGraph()
	p, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Root != "rootm" || p.Machines[0].Name != "rootm" {
		t.Errorf("root machine not first: %+v", p.Machines)
	}
	mb, _ := p.Machine("mb")
	if math.Abs(mb.Alpha-(1e-5+1e-4)) > 1e-12 {
		t.Errorf("mb effective alpha = %g, want attachment+route", mb.Alpha)
	}
	if math.Abs(mb.CommLatency-1e-3) > 1e-12 {
		t.Errorf("mb effective latency = %g, want 1e-3", mb.CommLatency)
	}
	mc, _ := p.Machine("mc")
	if math.Abs(mc.Alpha-(2e-5+3e-4)) > 1e-12 {
		t.Errorf("mc effective alpha = %g", mc.Alpha)
	}
	if mc.Site != "siteC" {
		t.Errorf("mc site = %q, want its node", mc.Site)
	}
	// Unreachable machine-bearing node is an error; an unreachable
	// bare transit node is not.
	g2 := chainGraph()
	g2.Links = g2.Links[:1]
	if _, err := g2.Flatten(); err == nil {
		t.Error("flatten accepted unreachable machines")
	}
	g3 := chainGraph()
	g3.Nodes = append(g3.Nodes, Node{Name: "island"})
	if _, err := g3.Flatten(); err != nil {
		t.Errorf("bare unreachable transit node rejected: %v", err)
	}
}

func TestGraphProcessorNodes(t *testing.T) {
	g := chainGraph()
	nodes, err := g.ProcessorNodes()
	if err != nil {
		t.Fatal(err)
	}
	// Ranks: mb, mc#1, mc#2, then the root CPU last on siteA.
	want := []string{"siteB", "siteC", "siteC", "siteA"}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	p, _ := g.Flatten()
	procs, err := p.Processors()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != len(nodes) {
		t.Fatalf("%d procs but %d rank nodes", len(procs), len(nodes))
	}
}

func TestGraphRankAdjacency(t *testing.T) {
	g := chainGraph()
	nodes, _ := g.ProcessorNodes() // [siteB siteC siteC siteA]
	adj := g.RankAdjacency(nodes)
	has := func(i, j int) bool {
		for _, nb := range adj[i] {
			if nb == j {
				return true
			}
		}
		return false
	}
	// Same node: the two mc CPUs are adjacent.
	if !has(1, 2) || !has(2, 1) {
		t.Error("co-located ranks not adjacent")
	}
	// Linked nodes: siteB-siteC and siteA-siteB.
	if !has(0, 1) || !has(0, 3) {
		t.Error("linked-site ranks not adjacent")
	}
	// Unlinked nodes: siteA and siteC are two hops apart.
	if has(1, 3) || has(3, 2) {
		t.Error("two-hop ranks adjacent")
	}
}

func TestRandomGraphGeneratesSolvablePlatforms(t *testing.T) {
	for _, sites := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(100 + sites)))
		g := RandomGraph(rng, sites)
		if err := g.Validate(); err != nil {
			t.Fatalf("sites=%d: %v", sites, err)
		}
		p, err := g.Flatten()
		if err != nil {
			t.Fatalf("sites=%d: %v", sites, err)
		}
		procs, err := p.Processors()
		if err != nil {
			t.Fatalf("sites=%d: %v", sites, err)
		}
		nodes, err := g.ProcessorNodes()
		if err != nil || len(nodes) != len(procs) {
			t.Fatalf("sites=%d: rank nodes mismatch (%v)", sites, err)
		}
		// Determinism: same seed, same graph.
		g2 := RandomGraph(rand.New(rand.NewSource(int64(100+sites))), sites)
		if len(g2.Links) != len(g.Links) || g2.Name != g.Name {
			t.Errorf("sites=%d: RandomGraph not deterministic", sites)
		}
	}
}

func TestTwoSiteGraphMatchesStarShape(t *testing.T) {
	g := TwoSiteGraph(rand.New(rand.NewSource(7)), 3, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Machines {
		if m.Site == "remote" {
			// Remote machines pay the WAN link on top of their LAN
			// attachment.
			if m.Alpha <= 1e-5 {
				t.Errorf("remote machine %s alpha = %g, missing WAN cost", m.Name, m.Alpha)
			}
			if m.CommLatency < 5e-3 {
				t.Errorf("remote machine %s latency = %g, missing WAN latency", m.Name, m.CommLatency)
			}
		}
	}
}

// UsesNode reports whether the route passes through the node
// (including its endpoints).
func (r Route) UsesNode(n string) bool {
	for _, p := range r.Path {
		if p == n {
			return true
		}
	}
	return false
}

// TwoSiteGraph lifts a RandomTwoSite-style platform into its routed
// form: a "local" node and a "remote" node joined by one WAN link, the
// shape of the paper's Strasbourg–Montpellier testbed.
func TwoSiteGraph(rng *rand.Rand, localMachines, remoteMachines int) Graph {
	p := RandomTwoSite(rng, localMachines, remoteMachines)
	wan := Link{A: "local", B: "remote", Alpha: 2e-5, Latency: 5e-3}
	g := Graph{
		Name:  "graph-" + p.Name,
		Nodes: []Node{{Name: "local"}, {Name: "remote"}},
		Links: []Link{wan},
		Root:  p.Root,
	}
	for _, m := range p.Machines {
		idx := 0
		if m.Site == "remote" {
			idx = 1
			// The WAN crossing moves into the shared link; the machine
			// keeps only a LAN-scale attachment cost.
			m.Alpha = 1e-5
		}
		g.Nodes[idx].Machines = append(g.Nodes[idx].Machines, m)
	}
	return g
}

// RandomGraph generates a synthetic routed platform with the given
// number of sites: a ring-with-chords backbone (always connected) and
// 1–3 machines per site, with the data on the first site. Costs follow
// the Random spreads, with inter-site links one to two orders of
// magnitude slower than local attachments.
func RandomGraph(rng *rand.Rand, sites int) Graph {
	if sites < 1 {
		sites = 1
	}
	g := Graph{Name: fmt.Sprintf("randomgraph-%d", sites)}
	for s := 0; s < sites; s++ {
		n := Node{Name: fmt.Sprintf("site%02d", s)}
		machines := 1 + rng.Intn(3)
		for m := 0; m < machines; m++ {
			n.Machines = append(n.Machines, Machine{
				Name:  fmt.Sprintf("s%02dm%02d", s, m),
				CPUs:  1 + rng.Intn(2),
				Beta:  0.002 + rng.Float64()*0.02,
				Alpha: 1e-5 * (1 + rng.Float64()),
				Site:  n.Name,
			})
		}
		g.Nodes = append(g.Nodes, n)
	}
	g.Root = g.Nodes[0].Machines[0].Name
	g.Nodes[0].Machines[0].Alpha = 0
	for s := 0; s < sites-1; s++ {
		g.Links = append(g.Links, Link{
			A:       g.Nodes[s].Name,
			B:       g.Nodes[s+1].Name,
			Alpha:   1e-4 * (1 + rng.Float64()*9),
			Latency: 1e-3 * (1 + rng.Float64()*9),
		})
	}
	if sites > 2 {
		// Close the ring and sprinkle chords for route diversity.
		g.Links = append(g.Links, Link{
			A:       g.Nodes[sites-1].Name,
			B:       g.Nodes[0].Name,
			Alpha:   1e-4 * (1 + rng.Float64()*9),
			Latency: 1e-3 * (1 + rng.Float64()*9),
		})
		for c := 0; c < sites/3; c++ {
			a, b := rng.Intn(sites), rng.Intn(sites)
			if a == b || a == (b+1)%sites || b == (a+1)%sites {
				continue
			}
			g.Links = append(g.Links, Link{
				A:       g.Nodes[a].Name,
				B:       g.Nodes[b].Name,
				Alpha:   1e-4 * (1 + rng.Float64()*9),
				Latency: 1e-3 * (1 + rng.Float64()*9),
			})
		}
	}
	return g
}

// Hops returns the number of links on the route.
func (r Route) Hops() int {
	if len(r.Path) == 0 {
		return 0
	}
	return len(r.Path) - 1
}
