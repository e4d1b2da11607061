package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/store"
)

// The serve workloads run a closed loop of serveClients job launchers
// against a daemon with serveWorkers solver workers: one
// load-generating goroutine and one keep-alive connection per CPU of
// a 2-CPU host.
const (
	serveClients = 2
	serveWorkers = 2
	// walWidth is the processor count of every WAL platform, so that
	// every serve-hot request costs the same whatever the seed picks.
	walWidth = 8
	// spotChecks is how many oracle answers are re-derived with a
	// fresh Algorithm 2 solve before the run.
	spotChecks = 16
)

// grid is one generated platform with its pre-encoded request body.
type grid struct {
	plat   platform.Platform
	procs  []core.Processor
	sig    string
	prefix []byte // the POST /v1/plan body up to the item count
}

// newGrid draws a single-site platform of width one-CPU machines.
func newGrid(rng *rand.Rand, name string, width int) (grid, error) {
	p := platform.Platform{Name: name, Root: name + "-m0"}
	for i := 0; i < width; i++ {
		m := platform.Machine{Name: fmt.Sprintf("%s-m%d", name, i), CPUs: 1, Beta: 0.004 + 0.012*rng.Float64()}
		if i > 0 {
			m.Alpha = 1e-5 + 8e-5*rng.Float64()
		}
		p.Machines = append(p.Machines, m)
	}
	return gridOf(p)
}

// table1Grid is the paper's Table 1 testbed with every CPU a machine of
// its own and every cost jittered by up to 1%: a platform with unique
// fingerprints whose DP costs the same whatever the seed draws.
func table1Grid(rng *rand.Rand, name string) (grid, error) {
	t1 := platform.Table1()
	p := platform.Platform{Name: name}
	jitter := func(x float64) float64 { return x * (1 + 0.01*(2*rng.Float64()-1)) }
	for _, m := range t1.Machines {
		for c := 0; c < m.CPUs; c++ {
			cpu := platform.Machine{Name: fmt.Sprintf("%s-%s%d", name, m.Name, c), CPUs: 1, Beta: jitter(m.Beta), Alpha: jitter(m.Alpha)}
			if m.Name == t1.Root {
				p.Root = cpu.Name
			}
			p.Machines = append(p.Machines, cpu)
		}
	}
	return gridOf(p)
}

func gridOf(p platform.Platform) (grid, error) {
	procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		return grid{}, err
	}
	sig, ok := core.PlatformSignature(procs)
	if !ok {
		return grid{}, fmt.Errorf("platform %s has no signature", p.Name)
	}
	body, err := json.Marshal(serve.PlanRequest{Platform: p})
	if err != nil {
		return grid{}, err
	}
	tail := []byte(`"items":0}`)
	if !bytes.HasSuffix(body, tail) {
		return grid{}, fmt.Errorf("unexpected request encoding %s", body)
	}
	return grid{plat: p, procs: procs, sig: sig, prefix: body[:len(body)-2]}, nil
}

// body writes the request for items into buf.
func (g *grid) body(buf []byte, items int) []byte {
	buf = append(buf[:0], g.prefix...)
	buf = strconv.AppendInt(buf, int64(items), 10)
	return append(buf, '}')
}

// walSet is the seeded WAL both serve workloads recover: walGrids
// platforms, each with walCounts exact plans.
type walSet struct {
	path    string
	grids   []grid
	keys    []walKey
	answers []core.Result
}

type walKey struct{ grid, items int }

// buildWAL generates the WAL. Plans are built cheaply: one cold engine
// solve per platform at its largest item count, then an O(p) plan
// cache hit for every smaller count.
func buildWAL(cfg config, rng *rand.Rand, res *result) (*walSet, error) {
	w := &walSet{path: filepath.Join(cfg.dir, "plans.wal")}
	st, _, err := store.Open(w.path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	eng := core.NewEngine(0)
	for g := 0; g < cfg.walGrids; g++ {
		gr, err := newGrid(rng, fmt.Sprintf("wal%03d", g), walWidth)
		if err != nil {
			return nil, err
		}
		w.grids = append(w.grids, gr)
		counts := rng.Perm(cfg.walMaxItems - 1)[:cfg.walCounts]
		for i := range counts {
			counts[i]++
		}
		counts[0] = cfg.walMaxItems // the cold solve; the rest are cache hits
		for _, n := range counts {
			r, _, err := eng.SolveDetailed(gr.procs, n)
			if err != nil {
				return nil, err
			}
			if err := st.Append(store.Entry{Sig: gr.sig, Items: n, Makespan: r.Makespan, Dist: r.Distribution}); err != nil {
				return nil, err
			}
			w.keys = append(w.keys, walKey{g, n})
			w.answers = append(w.answers, r)
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	ok := true
	for i := 0; i < spotChecks; i++ {
		k := rng.Intn(len(w.keys))
		fresh, err := core.Algorithm2(w.grids[w.keys[k].grid].procs, w.keys[k].items)
		ok = ok && err == nil && sameResult(fresh, w.answers[k]) == nil
	}
	res.check("wal answers match Algorithm 2", ok)
	res.inputs["wal_records"] = len(w.keys)
	res.inputs["wal_platforms"] = cfg.walGrids
	res.inputs["wal_fs"] = fsType(cfg.dir)
	return w, nil
}

// daemon is scatterd's stack behind a loopback listener.
type daemon struct {
	st        *store.Store
	srv       *serve.Server
	ts        *httptest.Server
	recovered store.RecoveryInfo
	recovery  time.Duration
}

// startDaemon recovers the WAL, starts the server and waits for the
// first /healthz 200: the serve workloads' set-up.
func startDaemon(wal string, cfg serve.Config) (*daemon, error) {
	start := time.Now()
	st, info, err := store.Open(wal)
	if err != nil {
		return nil, err
	}
	d := &daemon{st: st, recovered: info, recovery: time.Since(start)}
	cfg.Store = st
	d.srv = serve.NewServer(cfg)
	d.ts = httptest.NewServer(d.srv)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(d.ts.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the status is what matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

func (d *daemon) close() error {
	d.ts.Close()
	d.srv.Drain()
	return d.st.Close()
}

// startDaemons runs the serve set-up cfg.setupReps times and keeps the
// last daemon; newConfig gives each a fresh server configuration.
func startDaemons(cfg config, wal string, newConfig func() serve.Config, res *result) (*daemon, error) {
	var d *daemon
	var recovery []float64
	setup, err := timeSetup(cfg.setupReps, func(last bool) error {
		var err error
		if d, err = startDaemon(wal, newConfig()); err != nil {
			return err
		}
		recovery = append(recovery, ms(d.recovery))
		if last {
			return nil
		}
		return d.close()
	})
	if err != nil {
		return nil, err
	}
	res.setup = setup
	res.layers["store.recover_ms"] = median(recovery)
	res.layers["store.recovered_entries"] = float64(d.recovered.Entries)
	return d, nil
}

// client is one job launcher: one keep-alive connection, one request
// in flight.
type client struct {
	tr   *http.Transport
	hc   *http.Client
	url  string
	body []byte
	resp []byte
}

func newClients(base string) []*client {
	cs := make([]*client, serveClients)
	for i := range cs {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{tr: tr, hc: &http.Client{Transport: tr}, url: base + "/v1/plan"}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// post sends c.body and reads the whole response into c.resp. The
// latency runs from send to the last byte of the body.
func (c *client) post(sent func(time.Time)) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	if sent != nil {
		sent(start)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	buf := bytes.NewBuffer(c.resp[:0])
	_, err = buf.ReadFrom(resp.Body)
	took := time.Since(start)
	resp.Body.Close()
	c.resp = buf.Bytes()
	return resp.StatusCode, took, err
}

// checker compares answers with their oracle. With corrupt set, it
// flips one distribution entry of the first answer it sees.
type checker struct{ corrupt atomic.Bool }

func newChecker(cfg config) *checker {
	c := &checker{}
	c.corrupt.Store(cfg.corrupt)
	return c
}

// plan checks a POST /v1/plan reply against its oracle answer.
func (c *checker) plan(status int, body []byte, want core.Result) error {
	got, err := decodePlan(status, body)
	if err != nil {
		return err
	}
	return c.result(got, want)
}

// decodePlan returns the answer of a POST /v1/plan reply.
func decodePlan(status int, body []byte) (core.Result, error) {
	if status != http.StatusOK {
		return core.Result{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var pr serve.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return core.Result{}, fmt.Errorf("decode reply: %w", err)
	}
	return core.Result{Distribution: pr.Distribution, Makespan: pr.Makespan}, nil
}

func (c *checker) result(got, want core.Result) error {
	if c.corrupt.CompareAndSwap(true, false) && len(got.Distribution) > 0 {
		got.Distribution = append(core.Distribution(nil), got.Distribution...)
		got.Distribution[0]++
	}
	return sameResult(got, want)
}

// sameResult demands bit-identical distributions and makespans.
func sameResult(got, want core.Result) error {
	if got.Makespan != want.Makespan || len(got.Distribution) != len(want.Distribution) {
		return fmt.Errorf("answer %v (makespan %v), want %v (makespan %v)", got.Distribution, got.Makespan, want.Distribution, want.Makespan)
	}
	for i := range got.Distribution {
		if got.Distribution[i] != want.Distribution[i] {
			return fmt.Errorf("answer %v, want %v", got.Distribution, want.Distribution)
		}
	}
	return nil
}

// serveStats records the server's own ratios over a phase.
func serveStats(res *result, before, after serve.Stats) {
	reqs := float64(after.Requests - before.Requests)
	if reqs == 0 {
		reqs = 1
	}
	shed := (after.ShedQueueFull - before.ShedQueueFull) + (after.ShedExpired - before.ShedExpired) + (after.ShedDraining - before.ShedDraining)
	res.layers["serve.store_hit_ratio"] = float64(after.StoreHits-before.StoreHits) / reqs
	res.layers["serve.shed_ratio"] = float64(shed) / reqs
}

// runServeHot is the daemon's steady state: a Zipf stream over the
// recovered WAL's keys, so every request is a store hit.
func runServeHot(cfg config) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	wal, err := buildWAL(cfg, rng, res)
	if err != nil {
		return nil, err
	}
	// The stream: Zipf ranks mapped onto keys by a seeded permutation.
	perm := rng.Perm(len(wal.keys))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(wal.keys)-1))
	stream := make([]int32, 1<<16)
	for i := range stream {
		stream[i] = int32(perm[zipf.Uint64()])
	}

	d, err := startDaemons(cfg, wal.path, func() serve.Config {
		return serve.Config{Engine: core.NewEngine(0), Workers: serveWorkers}
	}, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	clients := newClients(d.ts.URL)
	defer closeClients(clients)
	chk := newChecker(cfg)

	var next atomic.Int64
	op := func(c int, tr *tracer) (time.Duration, error) {
		i := next.Add(1) - 1
		k := stream[i%int64(len(stream))]
		key := wal.keys[k]
		g := &wal.grids[key.grid]
		cl := clients[c]
		cl.body = g.body(cl.body, key.items)
		if tr == nil {
			status, took, err := cl.post(nil)
			if err != nil {
				return took, err
			}
			return took, chk.plan(status, cl.resp, wal.answers[k])
		}
		opID := tr.id()
		opStart := time.Now()
		httpID := tr.id()
		var sent time.Time
		status, took, err := cl.post(func(t time.Time) { sent = t })
		tr.add(httpID, opID, "serve.http", i, sent, sent.Add(took))
		if err == nil {
			err = chk.plan(status, cl.resp, wal.answers[k])
		}
		if err == nil {
			err = replayHot(tr, opID, i, cl.body, d.st, g.sig)
		}
		tr.add(opID, 0, "op", i, opStart, time.Now())
		return took, err
	}

	before := d.srv.Stats()
	ph, errs := closedLoop(serveClients, seconds(cfg.warmup), func(c int) (time.Duration, error) { return op(c, nil) })
	res.warmup = ph
	res.errors = append(res.errors, errs...)
	measure(cfg, res, func(tr *tracer, d time.Duration) (phase, []string) {
		return closedLoop(serveClients, d, func(c int) (time.Duration, error) { return op(c, tr) })
	})
	after := d.srv.Stats()
	serveStats(res, before, after)
	res.check("engine untouched by store hits", after.Engine == (core.EngineStats{}))
	res.inputs["stream"] = "zipf s=1.1 over WAL keys"
	res.inputs["store_hits"] = after.StoreHits - before.StoreHits
	if cfg.trace {
		st := summarize(res.spans)
		stages := map[string]string{
			"serve.decode_us":   "serve.decode",
			"platform.order_us": "platform.order",
			"core.signature_us": "core.signature",
			"store.get_us":      "store.get",
			"serve.encode_us":   "serve.encode",
		}
		sum := 0.0
		for metric, spanName := range stages {
			v := p50(st, spanName, time.Microsecond)
			res.layers[metric] = v
			sum += v
		}
		res.layers["serve.residual_us"] = median(res.measured.lat)*1e3 - sum
	}
	return res, nil
}

// replayHot times, in the benchmark process, each layer call the
// server makes for a store hit, on the same request body.
func replayHot(tr *tracer, parent, req int64, body []byte, st *store.Store, wantSig string) error {
	var (
		pr    serve.PlanRequest
		procs []core.Processor
		sig   string
		entry store.Entry
		err   error
		found bool
	)
	tr.timed("serve.decode", parent, req, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&pr)
	})
	if err != nil {
		return err
	}
	tr.timed("platform.order", parent, req, func() {
		procs, err = pr.Platform.ProcessorsOrdered(platform.OrderDescendingBandwidth)
	})
	if err != nil {
		return err
	}
	tr.timed("core.signature", parent, req, func() { sig, _ = core.PlatformSignature(procs) })
	if sig != wantSig {
		return fmt.Errorf("replayed signature differs from the generated one")
	}
	tr.timed("store.get", parent, req, func() { entry, found = st.Get(sig, pr.Items) })
	if !found {
		return fmt.Errorf("replayed store lookup missed %d items", pr.Items)
	}
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	tr.timed("serve.encode", parent, req, func() {
		err = json.NewEncoder(io.Discard).Encode(serve.PlanResponse{
			Distribution: entry.Dist, Makespan: entry.Makespan, Processors: names, Source: "store", Signature: sig,
		})
	})
	return err
}

// churnClass is a serve-churn request class.
type churnClass uint8

const (
	classHit   churnClass = iota // a base platform at a new item count: engine cache hit
	classWarm                    // a survivor set of a base platform: warm resolve
	classCold                    // a pool platform long evicted: cold solve
	classPrime                   // a base at full width, once, at the head of the stream
)

var classNames = []string{classHit: "hit", classWarm: "warm", classCold: "cold", classPrime: "prime"}

// churnBlock fixes each class's share of the stream: every block of
// ten requests holds two hits, five warm resolves and three cold
// solves, in seeded order. The median falls inside the warm class and
// the 90th percentile inside the cold class, whose costs are DP work
// large next to the WAL fsync every request also pays.
var churnBlock = []churnClass{classHit, classHit, classWarm, classWarm, classWarm, classWarm, classWarm, classCold, classCold, classCold}

// churnCrashes are the ordered positions whose crash makes a survivor
// set: its warm resolve recomputes that many of the base plan's rows.
var churnCrashes = []int{6, 7, 8, 9}

const (
	churnBases = 2
	// churnVariants is how many survivor sets each (base, crash) pair
	// has: the same crash with the machines ahead of it re-measured,
	// so each set is a platform of its own whose resolve reuses the
	// same base rows.
	churnVariants = 8
	// churnPool is how many platforms the cold class visits in turn.
	churnPool = 20
	// churnCacheCap is the engine's plan-cache capacity. Hits visit
	// the two bases in turn, one hit each per block, so at most
	// eighteen other plans are stored between two hits on a base and
	// the bases are never evicted. A survivor set recurs only after
	// the other 63 were resolved, and a pool platform after 19 others
	// and 60 or so survivor sets were solved, so both always find their
	// own earlier plan evicted.
	churnCacheCap = 24
)

// churnStream is serve-churn's stream. Request k is a function of the
// seed and k alone, so the two clients share one stream, every class
// keeps its share however many requests a run completes, and the run
// can re-derive any request to check its answer. Each platform draws
// its item counts from a seeded permutation, so no key repeats; the
// stream runs out only after about 160,000 requests.
type churnStream struct {
	seed  int64
	n, lo int
	// grids: churnBases bases, then the survivor sets, then the pool.
	grids []grid
	// items[g] is platform g's item counts, in the order it uses them.
	items [][]int32
}

const (
	firstSurvivor = churnBases
	firstPool     = churnBases + churnBases*4*churnVariants
)

// newChurnStream draws the platforms and their item counts. Survivor
// sets and pool platforms take counts from the top 15% of the base
// width, so every warm or cold request costs about the same; hits
// take any count below it.
func newChurnStream(cfg config, rng *rand.Rand) (*churnStream, error) {
	n := cfg.churnMaxItems
	cs := &churnStream{seed: cfg.seed, n: n, lo: n - 15*n/100}
	for b := 0; b < churnBases; b++ {
		g, err := table1Grid(rng, fmt.Sprintf("base%d", b))
		if err != nil {
			return nil, err
		}
		cs.grids = append(cs.grids, g)
	}
	// Survivor set s belongs to base s%2 and crash s/2%4, so that
	// consecutive warm requests visit every base and crash in turn.
	for s := 0; s < firstPool-firstSurvivor; s++ {
		g, err := survivorGrid(rng, cs.grids[s%churnBases], churnCrashes[s/churnBases%len(churnCrashes)], s)
		if err != nil {
			return nil, err
		}
		cs.grids = append(cs.grids, g)
	}
	for q := 0; q < churnPool; q++ {
		g, err := table1Grid(rng, fmt.Sprintf("pool%02d", q))
		if err != nil {
			return nil, err
		}
		cs.grids = append(cs.grids, g)
	}
	for g := range cs.grids {
		lo, hi := cs.lo, n
		if g < churnBases {
			lo, hi = 1, n-1
		}
		perm := rng.Perm(hi - lo + 1)
		counts := make([]int32, len(perm))
		for i, v := range perm {
			counts[i] = int32(lo + v)
		}
		cs.items = append(cs.items, counts)
	}
	return cs, nil
}

// survivorGrid is base with the machine at ordered position pos
// crashed and the machines ahead of it re-measured: each of their
// costs lowered by up to 1%, which keeps them ahead of the rest. Its
// plan shares the base's rows behind the crash and nothing else.
func survivorGrid(rng *rand.Rand, base grid, pos, id int) (grid, error) {
	ahead := map[string]bool{}
	for _, p := range base.procs[:pos] {
		ahead[p.Name] = true
	}
	lower := func(x float64) float64 { return x * (1 - 0.01*rng.Float64()) }
	p := base.plat
	p.Name = fmt.Sprintf("%s-x%d-v%d", base.plat.Name, pos, id)
	p.Machines = nil
	for _, m := range base.plat.Machines {
		switch {
		case m.Name == base.procs[pos].Name:
			continue
		case ahead[m.Name]:
			m.Beta, m.Alpha = lower(m.Beta), lower(m.Alpha)
		}
		p.Machines = append(p.Machines, m)
	}
	g, err := gridOf(p)
	if err != nil {
		return grid{}, err
	}
	if !sameNames(g.procs[pos:], base.procs[pos+1:]) {
		return grid{}, fmt.Errorf("survivor set %s does not keep the base's order behind the crash", p.Name)
	}
	return g, nil
}

func sameNames(a, b []core.Processor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// churnReq is one serve-churn request.
type churnReq struct {
	grid  int
	items int
	class churnClass
}

// at returns request k.
func (cs *churnStream) at(k int64) (churnReq, error) {
	if k < churnBases {
		return churnReq{grid: int(k), items: cs.n, class: classPrime}, nil
	}
	j := k - churnBases
	block, slot := j/int64(len(churnBlock)), int(j%int64(len(churnBlock)))
	order := append([]churnClass(nil), churnBlock...)
	rng := randv2.New(randv2.NewPCG(uint64(cs.seed), uint64(block)))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	class := order[slot]
	// The class's ordinal in the stream: its earlier blocks, then its
	// earlier slots in this one.
	ord := int64(0)
	for _, c := range churnBlock {
		if c == class {
			ord += block
		}
	}
	for _, c := range order[:slot] {
		if c == class {
			ord++
		}
	}
	var g, width int64
	switch class {
	case classHit:
		g, width = 0, churnBases
	case classWarm:
		g, width = firstSurvivor, firstPool-firstSurvivor
	case classCold:
		g, width = firstPool, churnPool
	}
	g += ord % width
	use := ord / width
	if use >= int64(len(cs.items[g])) {
		return churnReq{}, fmt.Errorf("churn stream exhausted at request %d", k)
	}
	return churnReq{grid: int(g), items: int(cs.items[g][use]), class: class}, nil
}

// churnAnswer is a reply kept for checking after the run.
type churnAnswer struct {
	req churnReq
	got core.Result
}

// churnAnswers collects a phase's replies.
type churnAnswers struct {
	mu   sync.Mutex
	list []churnAnswer
}

func (a *churnAnswers) add(r churnReq, got core.Result) {
	a.mu.Lock()
	a.list = append(a.list, churnAnswer{r, got})
	a.mu.Unlock()
}

// verifyChurn checks every kept reply against its oracle: the
// platform's plan from core.SolvePlan at full width, looked up at the
// request's item count, built once per platform, after the run. A
// sample of the oracles is checked against a fresh Algorithm 2 solve.
// It returns the number of wrong replies per phase.
func verifyChurn(cs *churnStream, chk *checker, rng *rand.Rand, res *result, phases ...*churnAnswers) ([]int, error) {
	type ref struct{ phase, i int }
	byGrid := make([][]ref, len(cs.grids))
	for p, ans := range phases {
		for i, a := range ans.list {
			byGrid[a.req.grid] = append(byGrid[a.req.grid], ref{p, i})
		}
	}
	bad := make([]int, len(phases))
	sampled, sampleOK := 0, true
	for g, refs := range byGrid {
		if len(refs) == 0 {
			continue
		}
		pl, err := core.SolvePlan(cs.grids[g].procs, cs.n)
		if err != nil {
			return nil, err
		}
		for _, r := range refs {
			a := phases[r.phase].list[r.i]
			want, err := pl.Lookup(a.req.items, 0)
			if err != nil {
				return nil, err
			}
			if err := chk.result(a.got, want); err != nil {
				bad[r.phase]++
				res.errors = append(res.errors, fmt.Sprintf("request %s %d items: %v", cs.grids[g].plat.Name, a.req.items, err))
			}
		}
		if sampled < spotChecks && rng.Intn(4) == 0 {
			sampled++
			a := phases[refs[0].phase].list[refs[0].i]
			want, _ := pl.Lookup(a.req.items, 0)
			fresh, err := core.Algorithm2(cs.grids[g].procs, a.req.items)
			sampleOK = sampleOK && err == nil && sameResult(fresh, want) == nil
		}
	}
	res.check("churn oracle matches Algorithm 2", sampleOK)
	return bad, nil
}

// churnTracer correlates the server's solve calls with the client
// request that caused them, by (signature, items), which is unique in
// the churn stream.
type churnTracer struct {
	on      atomic.Bool
	tr      atomic.Pointer[tracer]
	pending sync.Map // "sig#items" -> pendingOp
}

type pendingOp struct {
	op, req int64
	sent    time.Time
}

// solve wraps Engine.SolveDetailed as the server's Solve hook.
func (ct *churnTracer) solve(eng *core.Engine) serve.SolveFunc {
	return func(procs []core.Processor, n int) (core.Result, core.SolveInfo, error) {
		if !ct.on.Load() {
			return eng.SolveDetailed(procs, n)
		}
		entered := time.Now()
		sig, _ := core.PlatformSignature(procs)
		res, info, err := eng.SolveDetailed(procs, n)
		done := time.Now()
		if v, ok := ct.pending.Load(sig + "#" + strconv.Itoa(n)); ok {
			p := v.(pendingOp)
			tr := ct.tr.Load()
			tr.add(tr.id(), p.op, "serve.queue_wait", p.req, p.sent, entered)
			tr.add(tr.id(), p.op, "core.solve."+info.Source.String(), p.req, entered, done)
		}
		return res, info, err
	}
}

// runServeChurn is the write and miss path: every request is a new
// key, answered by the engine (cache hit, warm resolve or cold solve
// in fixed shares) and appended to the store.
func runServeChurn(cfg config) (*result, error) {
	res := newResult()
	rng := rand.New(rand.NewSource(cfg.seed))
	wal, err := buildWAL(cfg, rng, res)
	if err != nil {
		return nil, err
	}
	cs, err := newChurnStream(cfg, rng)
	if err != nil {
		return nil, err
	}
	res.inputs["churn_platforms"] = map[string]int{"bases": churnBases, "survivor_sets": firstPool - firstSurvivor, "cold_pool": churnPool}
	res.inputs["churn_shares"] = map[string]float64{"hit": 0.2, "warm": 0.5, "cold": 0.3}
	res.inputs["churn_items"] = [2]int{cs.lo, cs.n}

	ct := &churnTracer{}
	d, err := startDaemons(cfg, wal.path, func() serve.Config {
		eng := core.NewEngine(churnCacheCap)
		sc := serve.Config{Engine: eng, Workers: serveWorkers}
		if cfg.trace {
			sc.Solve = ct.solve(eng)
		}
		return sc
	}, res)
	if err != nil {
		return nil, err
	}
	defer d.close()
	clients := newClients(d.ts.URL)
	defer closeClients(clients)

	var next atomic.Int64
	var probes atomic.Int64
	op := func(c int, tr *tracer, keep *churnAnswers) (time.Duration, error) {
		i := next.Add(1) - 1
		r, err := cs.at(i)
		if err != nil {
			return 0, err
		}
		g := &cs.grids[r.grid]
		cl := clients[c]
		cl.body = g.body(cl.body, r.items)
		var status int
		var took time.Duration
		if tr == nil {
			status, took, err = cl.post(nil)
		} else {
			opID := tr.id()
			opStart := time.Now()
			key := g.sig + "#" + strconv.Itoa(r.items)
			var sent time.Time
			status, took, err = cl.post(func(t time.Time) {
				sent = t
				ct.pending.Store(key, pendingOp{op: opID, req: i, sent: t})
			})
			ct.pending.Delete(key)
			tr.add(tr.id(), opID, "serve.http", i, sent, sent.Add(took))
			if err == nil && i%4 == 0 {
				err = probeAppend(tr, opID, i, d.st, int(probes.Add(1)))
			}
			tr.add(opID, 0, "op", i, opStart, time.Now())
		}
		if err != nil {
			return took, err
		}
		got, err := decodePlan(status, cl.resp)
		if err == nil {
			keep.add(r, got)
		}
		return took, err
	}

	// The warm-up is a fixed number of requests, and the retained heap
	// is read right after it: the store keeps every answer it appends,
	// so a reading after a timed phase would grow with throughput.
	var warmAns, measAns, tracedAns churnAnswers
	ph, errs := closedLoopN(serveClients, time.Hour, int64(cfg.churnWarmupOps), func(c int) (time.Duration, error) { return op(c, nil, &warmAns) })
	res.warmup = ph
	res.errors = append(res.errors, errs...)
	heap := heapRetainedMiB() - ph.recordMiB()
	before := d.srv.Stats()
	records0 := d.st.Records()
	measure(cfg, res, func(tr *tracer, dur time.Duration) (phase, []string) {
		keep := &measAns
		if tr != nil {
			keep = &tracedAns
			ct.tr.Store(tr)
			ct.on.Store(true)
			before = d.srv.Stats()
			records0 = d.st.Records()
			defer ct.on.Store(false)
		}
		return closedLoop(serveClients, dur, func(c int) (time.Duration, error) { return op(c, tr, keep) })
	})
	res.heapMiB = heap
	after := d.srv.Stats()
	serveStats(res, before, after)
	churnEngineStats(res, before.Engine, after.Engine)
	res.layers["store.appends"] = float64(d.st.Records() - records0 - int(probes.Load()))
	size, err := d.st.Size()
	if err != nil {
		return nil, err
	}
	res.layers["store.wal_bytes"] = float64(size)
	res.check("no store hits on fresh keys", after.StoreHits == 0)
	res.inputs["requests_issued"] = next.Load()

	bad, err := verifyChurn(cs, newChecker(cfg), rng, res, &warmAns, &measAns, &tracedAns)
	if err != nil {
		return nil, err
	}
	for i, ph := range []*phase{&res.warmup, &res.measured, &res.traced} {
		ph.ok -= bad[i]
		ph.failed += bad[i]
	}
	if cfg.trace {
		st := summarize(res.spans)
		res.layers["serve.queue_wait_ms"] = p50(st, "serve.queue_wait", time.Millisecond)
		res.layers["core.solve_ms.cache"] = p50(st, "core.solve.cache", time.Millisecond)
		res.layers["core.solve_ms.warm"] = p50(st, "core.solve.warm", time.Millisecond)
		res.layers["core.solve_ms.cold"] = p50(st, "core.solve.cold", time.Millisecond)
		res.layers["store.append_us"] = p50(st, "store.append", time.Microsecond)
		// How each request class was actually answered.
		sources := map[string]int{}
		for _, sp := range res.spans {
			if src, ok := strings.CutPrefix(sp.Name, "core.solve."); ok {
				r, _ := cs.at(sp.Req)
				sources[classNames[r.class]+"->"+src]++
			}
		}
		res.inputs["class_sources"] = sources
	}
	return res, nil
}

// churnEngineStats records the engine's counter deltas over the
// traced phase.
func churnEngineStats(res *result, before, after core.EngineStats) {
	hits := after.CacheHits - before.CacheHits
	warm := after.Resolves - before.Resolves
	cold := after.ColdSolves - before.ColdSolves
	coalesced := after.Coalesced - before.Coalesced
	other := (after.Fallbacks - before.Fallbacks) + (after.CoarseSolves - before.CoarseSolves)
	res.layers["core.cache_hits"] = float64(hits)
	res.layers["core.warm_resolves"] = float64(warm)
	res.layers["core.cold_solves"] = float64(cold)
	res.layers["core.coalesced"] = float64(coalesced)
	answers := hits + warm + cold + coalesced + other
	if answers == 0 {
		answers = 1
	}
	res.layers["core.plan_reuse_ratio"] = float64(hits+coalesced+warm) / float64(answers)
}

// probeAppend times Store.Append of a fresh entry under a signature no
// request uses, on the daemon's live WAL.
func probeAppend(tr *tracer, parent, req int64, st *store.Store, n int) error {
	var err error
	tr.timed("store.append", parent, req, func() {
		err = st.Append(store.Entry{Sig: "perfbench-probe", Items: n, Makespan: float64(n), Dist: []int{n}})
	})
	return err
}
