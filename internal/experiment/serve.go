package experiment

// Serve prices what the durable plan store buys the scatterd daemon
// stack (internal/serve over internal/store and core.Engine) on
// restart, through a real HTTP listener. A fresh daemon answers every
// distinct (platform, items) key of a seeded workload once: that sweep
// is the cold-restart time, and it writes the WAL. The WAL's tail is
// then torn as a crash leaves it, a second daemon recovers it, and the
// same keys are swept again warm. Every answer in both sweeps is
// checked bit for bit against a fresh Algorithm 2 solve. Load figures
// (throughput, latency, shedding, store hits) are measured by the
// repository benchmark's serve-hot and serve-churn workloads.
// `scatterbench -exp serve -json FILE` writes the same numbers as
// BENCH_serve.json.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/store"
)

func init() {
	register("serve", Serve)
}

// servePlatforms is the number of seeded two-site grids in the
// workload; each is asked for four item counts.
const servePlatforms = 24

// serveDoc is the BENCH_serve.json document.
type serveDoc struct {
	Benchmark         string `json:"benchmark"`
	Seed              int64  `json:"seed"`
	DistinctPlatforms int    `json:"distinct_platforms"`
	DistinctKeys      int    `json:"distinct_keys"`
	// Restart economics: re-answering every distinct key on a daemon
	// restarted over the recovered WAL versus on a cold daemon.
	RecoveredPlans      int     `json:"recovered_plans"`
	WarmRestartSeconds  float64 `json:"warm_restart_seconds"`
	ColdRestartSeconds  float64 `json:"cold_restart_seconds"`
	WarmRestartSpeedup  float64 `json:"warm_restart_speedup"`
	WarmRestartAllStore bool    `json:"warm_restart_all_store"`
}

// serveKey is one distinct (platform, items) request in the workload.
type serveKey struct {
	body  []byte
	fresh core.Result
}

// buildWorkload generates the distinct keys: seeded two-site grids
// crossed with a few item counts, each pre-solved fresh for the
// invariant check.
func buildWorkload(rng *rand.Rand, nPlatforms int) ([]serveKey, error) {
	itemCounts := []int{2000, 5000, 11000, 30000}
	keys := make([]serveKey, 0, nPlatforms*len(itemCounts))
	for i := 0; i < nPlatforms; i++ {
		p := platform.RandomTwoSite(rng, 1+rng.Intn(3), 1+rng.Intn(3))
		p.Name = fmt.Sprintf("%s-%d", p.Name, i)
		procs, err := p.ProcessorsOrdered(platform.OrderDescendingBandwidth)
		if err != nil {
			return nil, err
		}
		for _, n := range itemCounts {
			fresh, err := core.Algorithm2(procs, n)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.PlanRequest{Platform: p, Items: n})
			if err != nil {
				return nil, err
			}
			keys = append(keys, serveKey{body: body, fresh: fresh})
		}
	}
	return keys, nil
}

// checkResponse decodes a 200 and verifies it against the key's fresh
// solve.
func checkResponse(body []byte, key serveKey) (serve.PlanResponse, error) {
	var pr serve.PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return pr, fmt.Errorf("decode: %w", err)
	}
	if pr.Makespan != key.fresh.Makespan {
		return pr, fmt.Errorf("makespan %v != fresh %v", pr.Makespan, key.fresh.Makespan)
	}
	if len(pr.Distribution) != len(key.fresh.Distribution) {
		return pr, fmt.Errorf("distribution width %d != fresh %d", len(pr.Distribution), len(key.fresh.Distribution))
	}
	for i := range pr.Distribution {
		if pr.Distribution[i] != key.fresh.Distribution[i] {
			return pr, fmt.Errorf("distribution %v != fresh %v", pr.Distribution, key.fresh.Distribution)
		}
	}
	return pr, nil
}

// sweepDaemon starts a daemon over the WAL at path, posts every key
// once, checking each answer, and stops the daemon without compacting
// the WAL, as a crash would. It reports how long the sweep took, how
// many answers came from the durable store, and how many plans the
// daemon recovered from the WAL on start.
func sweepDaemon(path string, keys []serveKey) (secs float64, storeAnswers, recovered int, err error) {
	st, info, err := store.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	srv := serve.NewServer(serve.Config{Store: st})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Drain()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	start := time.Now()
	for _, key := range keys {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(key.body))
		if err != nil {
			return 0, 0, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, 0, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, body)
		}
		pr, err := checkResponse(body, key)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sweep: %w", err)
		}
		if pr.Source == "store" {
			storeAnswers++
		}
	}
	return time.Since(start).Seconds(), storeAnswers, info.Entries, nil
}

// runServe sweeps a cold daemon, tears its WAL's tail, and sweeps a
// daemon warmed from the recovered WAL, over nPlatforms seeded grids.
func runServe(nPlatforms int) (serveDoc, error) {
	const seed = 20260808
	doc := serveDoc{Benchmark: "Serve", Seed: seed, DistinctPlatforms: nPlatforms}
	keys, err := buildWorkload(rand.New(rand.NewSource(seed)), nPlatforms)
	if err != nil {
		return doc, err
	}
	doc.DistinctKeys = len(keys)

	dir, err := os.MkdirTemp("", "scatterd-bench")
	if err != nil {
		return doc, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "plans.wal")

	// Cold restart: empty WAL, fresh engine — what every boot would
	// cost without durability.
	coldSecs, _, _, err := sweepDaemon(walPath, keys)
	if err != nil {
		return doc, fmt.Errorf("cold sweep: %w", err)
	}
	doc.ColdRestartSeconds = coldSecs

	// Simulated crash: leave a torn frame on the WAL tail, so the warm
	// daemon starts through the recovery path.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return doc, err
	}
	if _, err := f.WriteString("plan 512 0badc0de\nsig torn-by-crash"); err != nil {
		f.Close()
		return doc, err
	}
	if err := f.Close(); err != nil {
		return doc, err
	}

	// Warm restart: recovered WAL, fresh engine.
	warmSecs, storeAnswers, recovered, err := sweepDaemon(walPath, keys)
	if err != nil {
		return doc, fmt.Errorf("warm sweep: %w", err)
	}
	doc.RecoveredPlans = recovered
	doc.WarmRestartSeconds = warmSecs
	doc.WarmRestartAllStore = storeAnswers == len(keys)
	if warmSecs > 0 {
		doc.WarmRestartSpeedup = coldSecs / warmSecs
	}
	return doc, nil
}

// Serve is the registered experiment. Wall-clock times are
// hardware-dependent; the scale-free claims are that every answer is
// bit-identical to a fresh solve (a mismatch fails the run) and that
// the warm daemon answers every distinct key from the recovered WAL.
func Serve() (Report, error) {
	doc, err := runServe(servePlatforms)
	if err != nil {
		return Report{}, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "scatterd restart over %d distinct (platform, items) keys, every answer checked against a fresh solve:\n\n",
		doc.DistinctKeys)
	fmt.Fprintf(&sb, "  cold   %8.3fs  fresh daemon over an empty WAL (the sweep writes it)\n", doc.ColdRestartSeconds)
	fmt.Fprintf(&sb, "  warm   %8.3fs  daemon over the WAL after a torn tail: %d plans recovered, all-store=%t\n",
		doc.WarmRestartSeconds, doc.RecoveredPlans, doc.WarmRestartAllStore)
	fmt.Fprintf(&sb, "  speedup %7.1fx\n", doc.WarmRestartSpeedup)

	allStore := 0.0
	if doc.WarmRestartAllStore {
		allStore = 1
	}
	rep := Report{
		ID:    "serve",
		Title: "scatterd daemon: crash-restart economics (extension)",
		Body:  sb.String(),
		Doc:   doc,
		Comparisons: []Comparison{
			{Metric: "warm restart serves all keys from WAL", Paper: 0,
				Measured: allStore, Unit: "",
				Note: "extension: 1 = every distinct key answered from the recovered store"},
		},
	}
	return rep, nil
}
