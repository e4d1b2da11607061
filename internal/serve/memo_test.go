package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/store"
)

// reply is one recorded response to POST /v1/plan.
type reply struct {
	status int
	ctype  string
	body   string
}

// plan sends body straight to the handler.
func plan(s *Server, body string) reply {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
	return reply{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

func (r reply) source(t *testing.T) string {
	t.Helper()
	if r.status != http.StatusOK {
		return ""
	}
	return decodePlan(t, []byte(r.body)).Source
}

// memoHolds reports whether s has memoised a response to body, and the
// key+value bytes both generations retain.
func memoHolds(s *Server, body string) (bool, int) {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	_, inCur := s.memo.cur[body]
	_, inPrev := s.memo.prev[body]
	n := 0
	for _, gen := range []map[string][]byte{s.memo.cur, s.memo.prev} {
		for k, v := range gen {
			n += len(k) + len(v)
		}
	}
	return inCur || inPrev, n
}

// forget empties s's memo, so its next store hit takes the slow path.
func forget(s *Server) {
	s.memo.mu.Lock()
	s.memo.cur, s.memo.prev, s.memo.curBytes = nil, nil, 0
	s.memo.mu.Unlock()
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, _, err := store.Open(filepath.Join(t.TempDir(), "plans.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := NewServer(cfg)
	t.Cleanup(s.Drain)
	return s
}

// TestServeStoreHitMemo proves the store-hit memo changes nothing a
// client or an operator can see: memoised answers are the slow path's
// bytes, counters move as on the slow path, only store hits enter the
// memo, and the memo keeps to its byte budget.
func TestServeStoreHitMemo(t *testing.T) {
	var bodies []string
	for seed := 0; seed < 3; seed++ {
		for _, ord := range []string{"", "as-listed", "ascending-bandwidth"} {
			bodies = append(bodies, mustBody(t, PlanRequest{Platform: testPlatform(seed), Items: 1500 + 100*seed, Ordering: ord}))
		}
	}
	// The same request in other bytes is another memo key with the
	// same answer.
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(bodies[0]), "", "  "); err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, indented.String(), bodies[0]+"\n")

	t.Run("identity", func(t *testing.T) {
		st := openStore(t)
		warm := newTestServer(t, Config{Store: st})
		second := make([]reply, len(bodies))
		fifth := make([]reply, len(bodies))
		for i, body := range bodies {
			for k := 1; k <= 5; k++ {
				r := plan(warm, body)
				switch k {
				case 2:
					second[i] = r
				case 5:
					fifth[i] = r
				}
			}
		}
		fresh := newTestServer(t, Config{Store: st})
		for i, body := range bodies {
			want := plan(fresh, body)
			if want.status != http.StatusOK || want.source(t) != "store" || want.ctype != "application/json" {
				t.Fatalf("body %d: fresh server answered %+v, want a JSON store hit", i, want)
			}
			if second[i] != want || fifth[i] != want {
				t.Fatalf("body %d: warmed 2nd %+v / 5th %+v, fresh %+v", i, second[i], fifth[i], want)
			}
		}
	})

	t.Run("counters", func(t *testing.T) {
		st := openStore(t)
		seed := newTestServer(t, Config{Store: st})
		for _, body := range bodies {
			plan(seed, body)
		}
		seq := append(slices.Clone(bodies), `{"items":`, bodies[1]+"x")
		run := func(s *Server, slow bool) Stats {
			for k := 0; k < 3; k++ {
				for _, body := range seq {
					if slow {
						forget(s)
					}
					plan(s, body)
				}
			}
			return s.Stats()
		}
		memo := run(newTestServer(t, Config{Store: st}), false)
		slow := run(newTestServer(t, Config{Store: st}), true)
		if memo != slow {
			t.Fatalf("stats with the memo %+v, on the slow path %+v", memo, slow)
		}
		if want := int64(3 * len(bodies)); memo.StoreHits != want || memo.Planned != want || memo.BadRequests != 6 {
			t.Fatalf("stats = %+v, want %d store hits and 6 bad requests", memo, want)
		}
	})

	t.Run("no foreign fills", func(t *testing.T) {
		st := openStore(t)
		s := newTestServer(t, Config{Store: st, MaxBodyBytes: 2048})
		large := mustBody(t, PlanRequest{Platform: testPlatform(7), Items: 4000})
		small := mustBody(t, PlanRequest{Platform: testPlatform(7), Items: 2000})
		for _, c := range []struct {
			body   string
			status int
			source string
		}{
			{large, http.StatusOK, "cold"},
			{small, http.StatusOK, "cache"},
			{`{"items": -1}`, http.StatusBadRequest, ""},
			{large + strings.Repeat(" ", 2048), http.StatusRequestEntityTooLarge, ""},
		} {
			r := plan(s, c.body)
			if r.status != c.status || r.source(t) != c.source {
				t.Fatalf("answer %+v, want status %d source %q", r, c.status, c.source)
			}
			if held, _ := memoHolds(s, c.body); held {
				t.Fatalf("a %d %q answer entered the memo", c.status, c.source)
			}
		}
		if r := plan(s, small); r.source(t) != "store" {
			t.Fatalf("repeat answered %+v, want a store hit", r)
		}
		if held, _ := memoHolds(s, small); !held {
			t.Fatal("a store hit did not enter the memo")
		}

		coarse := newTestServer(t, Config{Store: st, Engine: core.NewEngineConfig(core.EngineConfig{Policy: core.PolicyCoarseRefine, CoarseMinItems: 1000})})
		refused := mustBody(t, PlanRequest{Platform: latencyPlatform(), Items: 5000})
		if r := plan(coarse, refused); r.source(t) != "cold" {
			t.Fatalf("answer %+v after a refused certificate, want source cold", r)
		}
		if held, _ := memoHolds(coarse, refused); held {
			t.Fatal("a cold answer on the coarse path entered the memo")
		}

		draining := newTestServer(t, Config{Store: st})
		draining.Drain()
		other := mustBody(t, PlanRequest{Platform: testPlatform(8), Items: 100})
		if r := plan(draining, other); r.status != http.StatusServiceUnavailable {
			t.Fatalf("draining answer %+v, want 503", r)
		}
		if held, _ := memoHolds(draining, other); held {
			t.Fatal("a 503 entered the memo")
		}
	})

	t.Run("budget", func(t *testing.T) {
		st := openStore(t)
		s := newTestServer(t, Config{Store: st})
		// Platform names do not reach the signature, so each name is
		// a distinct body answered by the one stored plan.
		pf := testPlatform(3)
		var through int
		for i := 0; through < 4*memoBudget; i++ {
			pf.Name = fmt.Sprintf("%04d%s", i, strings.Repeat("n", 1000))
			body := mustBody(t, PlanRequest{Platform: pf, Items: 3000})
			r := plan(s, body)
			if i > 0 && r.source(t) != "store" {
				t.Fatalf("request %d answered %+v, want a store hit", i, r)
			}
			through += len(body) + len(r.body)
			held, retained := memoHolds(s, body)
			if retained > memoBudget {
				t.Fatalf("after %d bytes of store hits the memo retains %d bytes, budget %d", through, retained, memoBudget)
			}
			if i > 0 && !held {
				t.Fatalf("request %d: the newest store hit is not memoised", i)
			}
		}
		// Concurrent clients over a working set larger than the budget
		// race lookups, fills, promotions and rotations.
		var want []reply
		var big []string
		for i := 0; i < 48; i++ {
			pf.Name = fmt.Sprintf("%04d%s", i, strings.Repeat("c", 16<<10))
			big = append(big, mustBody(t, PlanRequest{Platform: pf, Items: 3000}))
			want = append(want, plan(s, big[i]))
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < 300; k++ {
					i := (g*31 + k*k) % len(big)
					if r := plan(s, big[i]); r != want[i] {
						t.Errorf("concurrent answer %+v, want %+v", r, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if _, retained := memoHolds(s, ""); retained > memoBudget {
			t.Fatalf("the memo retains %d bytes, budget %d", retained, memoBudget)
		}

		// An entry over half the budget is never memoised.
		pf.Name = strings.Repeat("h", memoBudget/2)
		huge := mustBody(t, PlanRequest{Platform: pf, Items: 3000})
		for k := 0; k < 2; k++ {
			plan(s, huge)
		}
		if held, _ := memoHolds(s, huge); held {
			t.Fatal("an entry larger than half the budget was memoised")
		}
	})
}

// fuzzOrdering maps a request's ordering field to its policy.
func fuzzOrdering(name string) (platform.Ordering, bool) {
	switch name {
	case "", "descending-bandwidth":
		return platform.OrderDescendingBandwidth, true
	case "as-listed":
		return platform.OrderAsListed, true
	case "ascending-bandwidth":
		return platform.OrderAscendingBandwidth, true
	}
	return 0, false
}

// FuzzPlanRequest sends arbitrary bodies through the real handler of a
// daemon with a store and a coarse-policy engine, so answers can be
// solved, certified, stored or memoised. The caps keep every solve
// small. No body may panic the handler or get a 500; every 200 is
// Algorithm 2's answer on the decoded, ordered platform, bit for bit;
// and a store hit repeats byte-identically from the memo.
func FuzzPlanRequest(f *testing.F) {
	for _, req := range []PlanRequest{
		{Platform: testPlatform(1), Items: 300},
		{Platform: testPlatform(2), Items: 5000, Ordering: "ascending-bandwidth"},
		{Platform: latencyPlatform(), Items: 5000},
		{Platform: testPlatform(4), Items: 0, Ordering: "as-listed", TimeoutMs: 50000},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	wal := filepath.Join(f.TempDir(), "plans.wal")
	st, _, err := store.Open(wal)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	eng := core.NewEngineConfig(core.EngineConfig{Policy: core.PolicyCoarseRefine, CoarseMinItems: 1})
	s := NewServer(Config{Store: st, Engine: eng, MaxItems: 5000, MaxProcessors: 6, MaxBodyBytes: 8192})
	f.Cleanup(s.Drain)

	f.Fuzz(func(t *testing.T, body []byte) {
		var replies [3]reply
		for k := range replies {
			replies[k] = plan(s, string(body))
			if replies[k].status == http.StatusInternalServerError {
				t.Fatalf("500 for %q: %s", body, replies[k].body)
			}
		}
		for _, r := range replies {
			if r.status == http.StatusOK {
				checkPlan(t, body, r)
			}
		}
		if replies[1].source(t) == "store" {
			if replies[2] != replies[1] {
				t.Fatalf("memoised answer %+v differs from the store hit %+v", replies[2], replies[1])
			}
			if held, _ := memoHolds(s, string(body)); !held {
				t.Fatal("a store hit did not enter the memo")
			}
		}
	})
}

// checkPlan verifies a 200 answer to body against Algorithm 2.
func checkPlan(t *testing.T, body []byte, r reply) {
	t.Helper()
	var req PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("200 for an undecodable body %q: %v", body, err)
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		t.Fatalf("200 for a body with trailing data %q", body)
	}
	policy, ok := fuzzOrdering(req.Ordering)
	if !ok {
		t.Fatalf("200 for unknown ordering %q", req.Ordering)
	}
	procs, err := req.Platform.ProcessorsOrdered(policy)
	if err != nil {
		t.Fatalf("200 for an invalid platform: %v", err)
	}
	want, err := core.Algorithm2(procs, req.Items)
	if err != nil {
		t.Fatalf("200 where Algorithm 2 fails: %v", err)
	}
	pr := decodePlan(t, []byte(r.body))
	if r.ctype != "application/json" || !slices.Equal(pr.Processors, procNames(procs)) || sum(pr.Distribution) != req.Items {
		t.Fatalf("answer %+v for %q, want %d items over %v", r, body, req.Items, procNames(procs))
	}
	if pr.Makespan != want.Makespan || !slices.Equal(pr.Distribution, want.Distribution) {
		t.Fatalf("answer %v (%v), Algorithm 2 %v (%v)", pr.Distribution, pr.Makespan, want.Distribution, want.Makespan)
	}
}

var benchReply int

// BenchmarkPlanStoreHit times the handler on a store hit, answered
// from the memo and on the slow path (decode, ordering, signature,
// store lookup, encode) with the memo emptied before each request.
// The platform has eight processors, like serve-hot's.
func BenchmarkPlanStoreHit(b *testing.B) {
	pf := platform.Platform{Name: "bench", Root: "m0"}
	for i := 0; i < 8; i++ {
		pf.Machines = append(pf.Machines, platform.Machine{Name: fmt.Sprintf("m%d", i), CPUs: 1, Beta: 0.004 + 0.001*float64(i), Alpha: 1e-5 * float64(i)})
	}
	body, err := json.Marshal(PlanRequest{Platform: pf, Items: 5000})
	if err != nil {
		b.Fatal(err)
	}
	st, _, err := store.Open(filepath.Join(b.TempDir(), "plans.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := NewServer(Config{Store: st})
	defer s.Drain()
	for _, mode := range []string{"memo", "slow"} {
		b.Run(mode, func(b *testing.B) {
			plan(s, string(body)) // solves and persists once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "slow" {
					forget(s)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
				benchReply = rec.Code
			}
			if benchReply != http.StatusOK {
				b.Fatalf("status %d", benchReply)
			}
		})
	}
}
