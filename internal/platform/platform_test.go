package platform

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

func TestTable1Validates(t *testing.T) {
	p := Table1()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TotalCPUs() != 16 {
		t.Errorf("Table 1 has %d CPUs, want 16", p.TotalCPUs())
	}
}

func TestTable1Values(t *testing.T) {
	p := Table1()
	cases := []struct {
		name  string
		cpus  int
		beta  float64
		alpha float64
	}{
		{"dinadan", 1, 0.009288, 0},
		{"pellinore", 1, 0.009365, 1.12e-5},
		{"caseb", 1, 0.004629, 1.00e-5},
		{"sekhmet", 1, 0.004885, 1.70e-5},
		{"merlin", 2, 0.003976, 8.15e-5},
		{"seven", 2, 0.016156, 2.10e-5},
		{"leda", 8, 0.009677, 3.53e-5},
	}
	for _, c := range cases {
		m, ok := p.Machine(c.name)
		if !ok {
			t.Fatalf("machine %s missing", c.name)
		}
		if m.CPUs != c.cpus || m.Beta != c.beta || m.Alpha != c.alpha {
			t.Errorf("%s = %+v, want cpus=%d beta=%g alpha=%g", c.name, m, c.cpus, c.beta, c.alpha)
		}
	}
}

func TestProcessorsRootLast(t *testing.T) {
	procs, err := Table1().Processors()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 16 {
		t.Fatalf("got %d processors, want 16", len(procs))
	}
	root := procs[len(procs)-1]
	if root.Name != "dinadan" {
		t.Errorf("last processor is %s, want dinadan", root.Name)
	}
	if root.Comm.Eval(1000) != 0 {
		t.Error("root pays a communication cost")
	}
	for _, pr := range procs[:len(procs)-1] {
		if pr.Comm.Eval(1000) <= 0 {
			t.Errorf("worker %s has a free link", pr.Name)
		}
	}
}

func TestProcessorsMultiCPUNaming(t *testing.T) {
	procs, err := Table1().Processors()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pr := range procs {
		if names[pr.Name] {
			t.Errorf("duplicate processor name %s", pr.Name)
		}
		names[pr.Name] = true
	}
	for _, want := range []string{"merlin#1", "merlin#2", "leda#1", "leda#8", "seven#2"} {
		if !names[want] {
			t.Errorf("missing processor %s", want)
		}
	}
}

func TestProcessorsOrderedDescending(t *testing.T) {
	procs, err := Table1().ProcessorsOrdered(OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 3 x-axis: caseb, pellinore, sekhmet, seven,
	// seven, leda x8, merlin, merlin, dinadan.
	wantPrefix := []string{"caseb", "pellinore", "sekhmet", "seven#1", "seven#2"}
	for i, w := range wantPrefix {
		if procs[i].Name != w {
			t.Errorf("position %d = %s, want %s", i, procs[i].Name, w)
		}
	}
	if procs[15].Name != "dinadan" {
		t.Errorf("root position = %s, want dinadan", procs[15].Name)
	}
	if procs[13].Name != "merlin#1" || procs[14].Name != "merlin#2" {
		t.Errorf("merlin not last before root: %s, %s", procs[13].Name, procs[14].Name)
	}
}

func TestProcessorsOrderedAscending(t *testing.T) {
	procs, err := Table1().ProcessorsOrdered(OrderAscendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4 x-axis: merlin, merlin, leda x8, seven, seven, sekhmet,
	// pellinore, caseb, dinadan.
	if procs[0].Name != "merlin#1" || procs[1].Name != "merlin#2" {
		t.Errorf("slowest links not first: %s, %s", procs[0].Name, procs[1].Name)
	}
	if procs[14].Name != "caseb" {
		t.Errorf("fastest link not last before root: %s", procs[14].Name)
	}
	if procs[15].Name != "dinadan" {
		t.Errorf("root position = %s, want dinadan", procs[15].Name)
	}
}

func TestProcessorsOrderedUnknownPolicy(t *testing.T) {
	if _, err := Table1().ProcessorsOrdered(Ordering(99)); err == nil {
		t.Error("unknown ordering accepted")
	}
}

func TestValidateCatchesBadPlatforms(t *testing.T) {
	cases := []struct {
		name string
		p    Platform
	}{
		{"empty", Platform{}},
		{"no root", Platform{Machines: []Machine{{Name: "a", CPUs: 1}}}},
		{"root missing", Platform{Root: "x", Machines: []Machine{{Name: "a", CPUs: 1}}}},
		{"duplicate machines", Platform{Root: "a", Machines: []Machine{{Name: "a", CPUs: 1}, {Name: "a", CPUs: 1}}}},
		{"zero CPUs", Platform{Root: "a", Machines: []Machine{{Name: "a", CPUs: 0}}}},
		{"negative beta", Platform{Root: "a", Machines: []Machine{{Name: "a", CPUs: 1, Beta: -1}}}},
		{"unnamed machine", Platform{Root: "a", Machines: []Machine{{CPUs: 1}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); err == nil {
				t.Error("invalid platform accepted")
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Table1()
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.Root != p.Root || len(back.Machines) != len(p.Machines) {
		t.Errorf("round trip lost data: %+v", back)
	}
	for i := range p.Machines {
		if back.Machines[i] != p.Machines[i] {
			t.Errorf("machine %d: %+v != %+v", i, back.Machines[i], p.Machines[i])
		}
	}
}

func TestParseFillsRatings(t *testing.T) {
	data := []byte(`{
		"name": "mini", "root": "r",
		"machines": [
			{"name": "r", "cpus": 1, "beta": 0.01, "alpha": 0},
			{"name": "w", "cpus": 1, "beta": 0.005, "alpha": 1e-5}
		]
	}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := p.Machine("w")
	if w.Rating != 2 {
		t.Errorf("derived rating = %g, want 2 (root beta / machine beta)", w.Rating)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","machines":[],"root":""}`)); err == nil {
		t.Error("empty platform accepted")
	}
}

func TestRandomPlatform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Random(rng, 6)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Machines) != 6 {
		t.Errorf("got %d machines", len(p.Machines))
	}
	procs, err := p.Processors()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != p.TotalCPUs() {
		t.Errorf("processors %d != total CPUs %d", len(procs), p.TotalCPUs())
	}
}

func TestRandomPlatformSolvable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		p := Random(rng, 2+rng.Intn(5))
		procs, err := p.ProcessorsOrdered(OrderDescendingBandwidth)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Heuristic(procs, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Distribution.Validate(len(procs), 1000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCommLatencyGivesAffineLinks(t *testing.T) {
	p := Platform{
		Name: "latency",
		Root: "r",
		Machines: []Machine{
			{Name: "r", CPUs: 1, Beta: 0.01},
			{Name: "w", CPUs: 1, Beta: 0.01, Alpha: 1e-5, CommLatency: 0.5},
		},
	}
	procs, err := p.Processors()
	if err != nil {
		t.Fatal(err)
	}
	w := procs[0]
	if got := cost.ClassOf(w.Comm); got != cost.AffineClass {
		t.Errorf("link class = %v, want affine", got)
	}
	if got := w.Comm.Eval(1); got != 0.5+1e-5 {
		t.Errorf("Comm(1) = %g", got)
	}
}

func TestOrderingString(t *testing.T) {
	if OrderAsListed.String() != "as-listed" ||
		OrderDescendingBandwidth.String() != "descending-bandwidth" ||
		OrderAscendingBandwidth.String() != "ascending-bandwidth" {
		t.Error("ordering names wrong")
	}
}

func TestRandomTwoSite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := RandomTwoSite(rng, 4, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Machines) != 6 {
		t.Fatalf("got %d machines", len(p.Machines))
	}
	if p.Root != "local00" {
		t.Errorf("root = %s, want local00", p.Root)
	}
	// Remote links are slower than local ones on average.
	var localMax, remoteMin float64 = 0, 1
	for _, m := range p.Machines {
		if m.Name == p.Root {
			continue
		}
		if m.Site == "local" && m.Alpha > localMax {
			localMax = m.Alpha
		}
		if m.Site == "remote" && m.Alpha < remoteMin {
			remoteMin = m.Alpha
		}
	}
	if remoteMin <= localMax/2 {
		t.Errorf("remote alphas (min %g) not clearly above local (max %g)", remoteMin, localMax)
	}
}

func TestRandomTwoSiteDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := RandomTwoSite(rng, 0, 0)
	if err := p.Validate(); err != nil {
		t.Fatalf("degenerate two-site platform invalid: %v", err)
	}
}

// TotalCPUs returns the number of processors in the platform.
func (p Platform) TotalCPUs() int {
	total := 0
	for _, m := range p.Machines {
		total += m.CPUs
	}
	return total
}
