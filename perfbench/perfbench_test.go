package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as lint-synthetic's worker
// process, as the command's own binary does.
func TestMain(m *testing.M) {
	if job := os.Getenv(lintWorkerEnv); job != "" {
		os.Exit(lintWorkerMain(job, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testConfig is a reduced-size run of one workload.
func testConfig(t *testing.T, workload string) config {
	cfg := companionConfig(workload, DefaultSeed)
	cfg.seconds = 0.3
	cfg.trace = false
	cfg.work = t.TempDir()
	return cfg
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runLine runs cfg and decodes the last line it prints.
func runLine(t *testing.T, cfg config) resultLine {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Fatalf("result line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			cfg := testConfig(t, w)
			line := runLine(t, cfg)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(endToEndUnits) {
				t.Errorf("untraced run printed %d metrics, want %d", len(line.Metrics), len(endToEndUnits))
			}
			for name, unit := range endToEndUnits {
				m, ok := line.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("end-to-end %s = %+v, want unit %s", name, m, unit)
				}
				if name != "heap_retained_mb" && !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}

			cfg.trace = true
			line = runLine(t, cfg)
			if !line.Correct || line.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", line.Correct, line.Failed)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for _, lm := range perLayer {
				m, ok := line.Metrics[lm.name]
				if !ok || m.Unit != lm.unit {
					t.Errorf("per-layer %s = %+v, want unit %s", lm.name, m, lm.unit)
				}
			}
			if got := line.Metrics["lint.findings"].Value; got < 1 {
				t.Errorf("lint.findings = %v, want the injected findings", got)
			}
		})
	}
}

func TestCorruptAnswerFailsRun(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			cfg := testConfig(t, w)
			cfg.corrupt = true
			line := runLine(t, cfg)
			if line.Correct || line.Failed == 0 {
				t.Fatalf("a flipped answer went unnoticed: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
		})
	}
}

func TestCommandRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "serve-hot", "--seed", "1", "--seconds", "1", "--trace", "2"},
	} {
		var out, errs bytes.Buffer
		if code := realMain(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("realMain(%v) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 10_000},
		{ID: 2, Parent: 1, Name: "a", Start: 1_000, End: 4_000},
		{ID: 3, Parent: 1, Name: "b", Start: 3_000, End: 6_000},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 9_000, End: 12_000}, // clipped at 10_000
	}
	st := summarize(spans)["op"]
	if st.P50us != 10 || st.SelfP50us != 4 {
		t.Fatalf("op = %+v, want 10us long with 4us self time", st)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(s, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestWindowRatesCreditShares(t *testing.T) {
	ph := phase{d: 2 * time.Second, ran: []opSpan{{0, 1}, {0.5, 1.5}, {1, 2}, {1.5, 2.5}}}
	got := ph.windowRates(2)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2 {
		t.Fatalf("window rates = %v, want [1.5 2]: half of an op per window it half ran in, nothing past the end", got)
	}
}

// TestChurnStreamIsRateIndependent checks that serve-churn's stream
// never repeats a key, keeps each class's share in every block, and
// draws warm and cold item counts from one fixed range wherever in the
// stream a request falls.
func TestChurnStreamIsRateIndependent(t *testing.T) {
	cfg := defaultConfig("serve-churn", DefaultSeed, 1)
	cs, err := newChurnStream(cfg, rand.New(rand.NewSource(cfg.seed)))
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ grid, items int }
	seen := map[key]bool{}
	const n = 20_000
	var shares [4]int
	for k := int64(0); k < n; k++ {
		r, err := cs.at(k)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := cs.at(k); again != r {
			t.Fatalf("request %d is %+v, then %+v", k, r, again)
		}
		if seen[key{r.grid, r.items}] {
			t.Fatalf("request %d repeats platform %d at %d items", k, r.grid, r.items)
		}
		seen[key{r.grid, r.items}] = true
		shares[r.class]++
		if (r.class == classWarm || r.class == classCold) && (r.items < cs.lo || r.items > cs.n) {
			t.Fatalf("request %d (%s) asks %d items, outside [%d, %d]", k, classNames[r.class], r.items, cs.lo, cs.n)
		}
		if j := k - churnBases; j >= 0 && j%int64(len(churnBlock)) == int64(len(churnBlock))-1 {
			blocks := int(j)/len(churnBlock) + 1
			if shares[classHit] != 2*blocks || shares[classWarm] != 5*blocks || shares[classCold] != 3*blocks {
				t.Fatalf("after %d blocks the shares are %v", blocks, shares)
			}
		}
	}
}
