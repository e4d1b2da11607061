package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/store"
)

// testPlatform builds a small deterministic two-site platform whose
// cost constants vary with seed, so distinct seeds give distinct
// signatures.
func testPlatform(seed int) platform.Platform {
	return platform.Platform{
		Name: fmt.Sprintf("test-%d", seed),
		Machines: []platform.Machine{
			{Name: "root", CPUs: 1, Beta: 0.010 + 0.001*float64(seed)},
			{Name: "fast", CPUs: 2, Beta: 0.004, Alpha: 1e-5 * float64(1+seed%3)},
			{Name: "slow", CPUs: 1, Beta: 0.016, Alpha: 5e-5 * float64(1+seed%2)},
		},
		Root: "root",
	}
}

func postPlan(t *testing.T, url string, req PlanRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodePlan(t *testing.T, data []byte) PlanResponse {
	t.Helper()
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode plan response %q: %v", data, err)
	}
	return pr
}

func sum(dist []int) int {
	total := 0
	for _, d := range dist {
		total += d
	}
	return total
}

func TestServePlanHappyPath(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "plans.wal")
	st, _, err := store.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(Config{Store: st})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const n = 4000
	req := PlanRequest{Platform: testPlatform(1), Items: n}
	resp, body := postPlan(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodePlan(t, body)
	if sum(pr.Distribution) != n {
		t.Fatalf("distribution %v sums to %d, want %d", pr.Distribution, sum(pr.Distribution), n)
	}
	if pr.Source != "cold" {
		t.Fatalf("first solve source = %q, want cold", pr.Source)
	}
	if pr.Signature == "" {
		t.Fatal("linear-cost platform must be fingerprintable")
	}
	if len(pr.Processors) != 4 || pr.Processors[len(pr.Processors)-1] != "root" {
		t.Fatalf("processors = %v, want 4 with root last", pr.Processors)
	}
	// Bit-identity with a direct solver call on the same ordering.
	procs, err := req.Platform.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Algorithm2(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Makespan != want.Makespan {
		t.Fatalf("served makespan %v != direct %v", pr.Makespan, want.Makespan)
	}
	for i := range want.Distribution {
		if pr.Distribution[i] != want.Distribution[i] {
			t.Fatalf("served distribution %v != direct %v", pr.Distribution, want.Distribution)
		}
	}

	// The identical request is now answered from the durable store
	// without touching the engine.
	resp2, body2 := postPlan(t, ts.URL, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp2.StatusCode)
	}
	pr2 := decodePlan(t, body2)
	if pr2.Source != "store" {
		t.Fatalf("repeat source = %q, want store", pr2.Source)
	}
	if pr2.Makespan != pr.Makespan || sum(pr2.Distribution) != n {
		t.Fatalf("store answer %v/%v differs from solved %v/%v", pr2.Distribution, pr2.Makespan, pr.Distribution, pr.Makespan)
	}

	// A different item count misses the store and resolves warm.
	resp3, body3 := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: n / 2})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("smaller-n status = %d", resp3.StatusCode)
	}
	if pr3 := decodePlan(t, body3); pr3.Source != "cache" && pr3.Source != "warm" {
		t.Fatalf("smaller-n source = %q, want cache or warm", pr3.Source)
	}

	stats := s.Stats()
	if stats.Requests != 3 || stats.Planned != 3 || stats.StoreHits != 1 {
		t.Fatalf("stats = %+v, want 3 requests, 3 planned, 1 store hit", stats)
	}
	if stats.StoreEntries != 2 {
		t.Fatalf("store entries = %d, want 2", stats.StoreEntries)
	}
	if stats.Engine.ColdSolves != 1 {
		t.Fatalf("engine cold solves = %d, want 1", stats.Engine.ColdSolves)
	}
}

func TestServeHealthAndStats(t *testing.T) {
	s := NewServer(Config{})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	resp.Body.Close()
	if stats.QueueCapacity != 64 || stats.Workers != 4 {
		t.Fatalf("defaults = %+v, want queue 64, workers 4", stats)
	}
	if stats.StoreEntries != -1 {
		t.Fatalf("store entries without a store = %d, want -1", stats.StoreEntries)
	}
}

func TestServePlanValidation(t *testing.T) {
	const maxBody = 4096
	s := NewServer(Config{MaxItems: 1000, MaxBodyBytes: maxBody})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	good := testPlatform(0)
	valid := mustBody(t, PlanRequest{Platform: good, Items: 5})
	// A valid first value under the cap, padded past it with
	// whitespace: only the body cap can reject it.
	padded := valid + strings.Repeat(" ", 2*maxBody)
	// Link costs whose products overflow float64: the plan's makespan
	// is +Inf, which JSON cannot carry.
	overflow := `{"platform": {"machines": [{"name": "a", "cpus": 1, "beta": 1e308}, {"name": "b", "cpus": 1, "beta": 1e308, "alpha": 1e308}], "root": "a"}, "items": 10}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"platform":`, http.StatusBadRequest},
		{"unknown field", `{"platfrom": {}, "items": 5}`, http.StatusBadRequest},
		{"negative items", mustBody(t, PlanRequest{Platform: good, Items: -1}), http.StatusBadRequest},
		{"items over cap", mustBody(t, PlanRequest{Platform: good, Items: 5000}), http.StatusBadRequest},
		{"negative timeout", mustBody(t, PlanRequest{Platform: good, Items: 5, TimeoutMs: -3}), http.StatusBadRequest},
		{"unknown ordering", mustBody(t, PlanRequest{Platform: good, Items: 5, Ordering: "random"}), http.StatusBadRequest},
		{"no machines", `{"platform": {"name": "x"}, "items": 5}`, http.StatusBadRequest},
		{"rootless", `{"platform": {"machines": [{"name": "a", "cpus": 1, "beta": 0.01}]}, "items": 5}`, http.StatusBadRequest},
		{"trailing object", valid + `{"items":7}`, http.StatusBadRequest},
		{"trailing garbage", valid + ` garbage`, http.StatusBadRequest},
		{"body over cap", padded, http.StatusRequestEntityTooLarge},
		{"cpus over cap", `{"platform": {"machines": [{"name": "a", "cpus": 1099511627776, "beta": 0.01}], "root": "a"}, "items": 5}`, http.StatusBadRequest},
		{"makespan overflows", overflow, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/plan = %d, want 405", resp.StatusCode)
	}

	// Every refused request counts as bad, except the overflow, which
	// is admitted and fails in the solver.
	st := s.Stats()
	if st.BadRequests != int64(len(cases)-1) || st.SolveErrors != 1 {
		t.Fatalf("BadRequests = %d, SolveErrors = %d, want %d and 1", st.BadRequests, st.SolveErrors, len(cases)-1)
	}
}

func mustBody(t *testing.T, req PlanRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServeOrderings(t *testing.T) {
	s := NewServer(Config{})
	defer s.Drain()
	ts := httptest.NewServer(s)
	defer ts.Close()

	p := testPlatform(2)
	for _, ord := range []string{"", "as-listed", "descending-bandwidth", "ascending-bandwidth"} {
		resp, body := postPlan(t, ts.URL, PlanRequest{Platform: p, Items: 1000, Ordering: ord})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ordering %q: status %d, body %s", ord, resp.StatusCode, body)
		}
		pr := decodePlan(t, body)
		policy := platform.OrderDescendingBandwidth
		switch ord {
		case "as-listed":
			policy = platform.OrderAsListed
		case "ascending-bandwidth":
			policy = platform.OrderAscendingBandwidth
		}
		procs, err := p.ProcessorsOrdered(policy)
		if err != nil {
			t.Fatal(err)
		}
		for i, proc := range procs {
			if pr.Processors[i] != proc.Name {
				t.Fatalf("ordering %q: served order %v, want %v", ord, pr.Processors, procNames(procs))
			}
		}
	}
}

// gatedSolver blocks each solve until released, exposing the admission
// machinery to deterministic tests.
type gatedSolver struct {
	started chan string
	release chan struct{}
}

func (g *gatedSolver) solve(procs []core.Processor, n int) (core.Result, core.SolveInfo, error) {
	g.started <- fmt.Sprintf("n=%d", n)
	<-g.release
	dist := make([]int, len(procs))
	dist[0] = n
	return core.Result{Distribution: dist, Makespan: float64(n)}, core.SolveInfo{Source: core.SourceCold}, nil
}

// TestServeSaturationShedding fills the single worker and the
// one-deep queue, then asserts the next request is shed immediately
// with 503 + Retry-After while the admitted ones still complete.
func TestServeSaturationShedding(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 1, Solve: g.solve, RetryAfterSeconds: 7})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(i), Items: 100 + i})
			codes[i] = resp.StatusCode
		}(i)
	}
	// Wait until the worker is inside the first solve, then give the
	// queue time to hold the second request.
	<-g.started
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(9), Items: 900})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want 7", ra)
	}

	close(g.release)
	<-g.started // second solve begins once the worker frees up
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request %d got %d", i, code)
		}
	}
	st := s.Stats()
	if st.ShedQueueFull != 1 || st.Planned != 2 {
		t.Fatalf("stats = %+v, want 1 shed, 2 planned", st)
	}
	s.Drain()
}

// TestServeQueuedDeadlineShed: a request whose deadline expires while
// queued gets 504 from its handler, and the worker sheds it without
// running the solver.
func TestServeQueuedDeadlineShed(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 4, Solve: g.solve})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(0), Items: 100})
	}()
	<-g.started // the worker is now pinned

	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 200, TimeoutMs: 50})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue status = %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timeout response missing Retry-After")
	}

	close(g.release)
	wg.Wait()
	// The worker must shed the expired job rather than solve it: only
	// the first request ever reaches the solver.
	waitFor(t, func() bool { return s.Stats().ShedExpired == 1 })
	select {
	case got := <-g.started:
		t.Fatalf("expired job reached the solver: %s", got)
	default:
	}
	st := s.Stats()
	if st.Abandoned != 1 || st.Planned != 1 {
		t.Fatalf("stats = %+v, want 1 abandoned, 1 planned", st)
	}
	s.Drain()
}

// TestServeDrain exercises the graceful-drain contract: in-flight
// solves finish and are delivered, new requests are rejected, health
// flips to draining, and Drain is idempotent.
func TestServeDrain(t *testing.T) {
	g := &gatedSolver{started: make(chan string, 8), release: make(chan struct{})}
	s := NewServer(Config{Workers: 1, QueueDepth: 4, Solve: g.solve})
	ts := httptest.NewServer(s)
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(0), Items: 500})
		inflight <- resp.StatusCode
	}()
	<-g.started

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, func() bool { return s.Stats().Draining })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	resp, body := postPlan(t, ts.URL, PlanRequest{Platform: testPlatform(1), Items: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("plan during drain = %d, body %s", resp.StatusCode, body)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a solve was in flight")
	default:
	}
	close(g.release)
	<-drained
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200 delivered before drain completes", code)
	}
	st := s.Stats()
	if st.ShedDraining != 1 || st.Planned != 1 {
		t.Fatalf("stats = %+v, want 1 shed draining, 1 planned", st)
	}
	s.Drain() // idempotent, returns immediately
}

// latencyPlatform is testPlatform(1) with a quarter-second latency on
// every link. Fixed costs that large defeat the coarse path's
// certificate (its Eq. 3 bound drops them), so a coarse-policy daemon
// answers it with the exact DP.
func latencyPlatform() platform.Platform {
	pf := testPlatform(1)
	pf.Machines = append([]platform.Machine(nil), pf.Machines...)
	for i := range pf.Machines {
		if pf.Machines[i].Name != pf.Root {
			pf.Machines[i].CommLatency = 0.25
		}
	}
	return pf
}

// requirePersistedAcrossRestart serves req twice from a coarse-refine
// daemon over the WAL at walPath, restarting the daemon in between.
// The first answer must come from wantSource with engine counters
// wantEngine, the second from the store; both must be Algorithm 2's
// answer bit for bit, carry no fields beyond an exact answer's, and
// leave exactly one plan in the WAL.
func requirePersistedAcrossRestart(t *testing.T, walPath string, req PlanRequest, coarseMin int, wantSource string, wantEngine core.EngineStats) {
	t.Helper()
	procs, err := req.Platform.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Algorithm2(procs, req.Items)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []string{wantSource, "store"} {
		st, _, err := store.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngineConfig(core.EngineConfig{Policy: core.PolicyCoarseRefine, CoarseMinItems: coarseMin})
		s := NewServer(Config{Engine: eng, Store: st})
		ts := httptest.NewServer(s)
		resp, body := postPlan(t, ts.URL, req)
		stats := s.Stats()
		ts.Close()
		s.Drain()
		st.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		for k := range fields {
			if !slices.Contains([]string{"distribution", "makespan", "processors", "source", "signature"}, k) {
				t.Fatalf("exact response carries %q: %s", k, body)
			}
		}
		pr := decodePlan(t, body)
		if pr.Source != source {
			t.Fatalf("source = %q, want %q", pr.Source, source)
		}
		if pr.Makespan != want.Makespan || !slices.Equal(pr.Distribution, want.Distribution) {
			t.Fatalf("served %v (%v), Algorithm 2 %v (%v)", pr.Distribution, pr.Makespan, want.Distribution, want.Makespan)
		}
		if stats.StoreEntries != 1 {
			t.Fatalf("store entries = %d, want 1", stats.StoreEntries)
		}
		routes := stats.Engine
		routes.Cells = 0 // the DP work an answer takes is pinned in core
		if source == wantSource && routes != wantEngine {
			t.Fatalf("engine stats = %+v, want %+v", stats.Engine, wantEngine)
		}
	}
}

// TestServeCoarsePolicyPersisted: a coarse-refine daemon whose
// certificate refuses the latency platform answers it with the exact
// cold solve. The answer is Algorithm 2's, carries no band, is
// appended to the WAL, and a restarted daemon serves it from the
// store bit-identically.
func TestServeCoarsePolicyPersisted(t *testing.T) {
	req := PlanRequest{Platform: latencyPlatform(), Items: 5000}
	requirePersistedAcrossRestart(t, filepath.Join(t.TempDir(), "plans.wal"), req, 1000,
		"cold", core.EngineStats{ColdSolves: 1, CertifyFallbacks: 1})
}

// TestServeCertifiedPersisted: a coarse-refine daemon answers a large
// affine request with a certified exact plan. The response looks like
// any exact answer, the plan is Algorithm 2's bit for bit, it is
// appended to the WAL, and a restarted daemon serves it from the store
// bit-identically.
func TestServeCertifiedPersisted(t *testing.T) {
	pf := testPlatform(2)
	pf.Machines = append([]platform.Machine(nil), pf.Machines...)
	pf.Machines[1].CommLatency = 1e-6 // affine links, small enough to certify
	req := PlanRequest{Platform: pf, Items: 50_000}
	requirePersistedAcrossRestart(t, filepath.Join(t.TempDir(), "plans.wal"), req, 1<<14,
		"coarse", core.EngineStats{CoarseSolves: 1})
}

// waitFor polls cond (test-side timing only; the daemon itself reads
// no clock).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
