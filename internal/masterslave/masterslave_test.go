package masterslave

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/platform"
	"repro/internal/simgrid"
)

func workers3() []core.Processor {
	return []core.Processor{
		{Name: "w1", Comm: cost.Linear{PerItem: 0.1}, Comp: cost.Linear{PerItem: 1}},
		{Name: "w2", Comm: cost.Linear{PerItem: 0.1}, Comp: cost.Linear{PerItem: 2}},
		{Name: "root", Comm: cost.Zero, Comp: cost.Linear{PerItem: 1}},
	}
}

func TestRunProcessesEverything(t *testing.T) {
	res, err := Run(Config{Procs: workers3(), Items: 100, ChunkSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range res.Workers {
		total += w.Items
	}
	if total != 100 {
		t.Errorf("processed %d items, want 100", total)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan for real work")
	}
}

func TestRunFasterWorkerGetsMoreChunks(t *testing.T) {
	res, err := Run(Config{Procs: workers3(), Items: 300, ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// w1 computes twice as fast as w2, so it should grab roughly
	// twice the chunks — that is the self-balancing property.
	if res.Workers[0].Items <= res.Workers[1].Items {
		t.Errorf("fast worker got %d items, slow worker %d", res.Workers[0].Items, res.Workers[1].Items)
	}
}

func TestRunSingleChunkDegeneratesToOneWorker(t *testing.T) {
	res, err := Run(Config{Procs: workers3(), Items: 10, ChunkSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for _, w := range res.Workers {
		if w.Items > 0 {
			served++
		}
	}
	if served != 1 {
		t.Errorf("%d workers served for a single chunk", served)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Procs: nil, Items: 10, ChunkSize: 1}); err == nil {
		t.Error("no processors accepted")
	}
	if _, err := Run(Config{Procs: workers3(), Items: -1, ChunkSize: 1}); err == nil {
		t.Error("negative items accepted")
	}
	if _, err := Run(Config{Procs: workers3(), Items: 10, ChunkSize: 0}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := Run(Config{Procs: workers3(), Items: 10, ChunkSize: 1, RequestOverhead: -1}); err == nil {
		t.Error("negative overhead accepted")
	}
}

func TestRunZeroItems(t *testing.T) {
	res, err := Run(Config{Procs: workers3(), Items: 0, ChunkSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 {
		t.Errorf("makespan = %g for zero items", res.Makespan)
	}
}

func TestRequestOverheadHurtsSmallChunks(t *testing.T) {
	base := Config{Procs: workers3(), Items: 200, RequestOverhead: 0.5}
	small := base
	small.ChunkSize = 1
	large := base
	large.ChunkSize = 50
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Makespan <= rl.Makespan {
		t.Errorf("chunk=1 (%g) should pay more overhead than chunk=50 (%g)", rs.Makespan, rl.Makespan)
	}
}

// TestStaticBeatsDynamicOnCalibratedGrid is the paper's §6 argument:
// with accurate cost knowledge, the static balanced scatter avoids the
// dynamic scheme's overheads.
func TestStaticBeatsDynamicOnCalibratedGrid(t *testing.T) {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	static, err := core.Heuristic(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	// The static scatter must beat the dynamic scheme at every chunk
	// size, 10 ms per request round-trip.
	for _, chunk := range []int{100, 500, 2000, 10000} {
		dynamic, err := Run(Config{Procs: procs, Items: n, ChunkSize: chunk, RequestOverhead: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if static.Makespan >= dynamic.Makespan {
			t.Errorf("static %g not better than dynamic %g (chunk %d) on a calibrated grid",
				static.Makespan, dynamic.Makespan, chunk)
		}
	}
}

// TestDynamicAdaptsToUnknownLoadPeak is the flip side: when a worker
// unexpectedly slows down, the dynamic scheme routes work away from it
// while the static distribution is stuck.
func TestDynamicAdaptsToUnknownLoadPeak(t *testing.T) {
	procs, err := platform.Table1().ProcessorsOrdered(platform.OrderDescendingBandwidth)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	// caseb is nearly dead for the whole run, unbeknownst to the
	// static balancer.
	load := map[string][]simgrid.RateWindow{
		"caseb": {{Start: 0, End: 1e9, Factor: 0.05}},
	}
	static, err := core.Heuristic(procs, n)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := simgrid.Run(simgrid.Config{Procs: procs, Dist: static.Distribution, CPULoad: load})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := Run(Config{
		Procs:           procs,
		Items:           n,
		ChunkSize:       1000,
		RequestOverhead: 0.01,
		CPULoad:         load,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.Makespan >= tl.Makespan {
		t.Errorf("dynamic %g not better than blind static %g under an unexpected load peak",
			dynamic.Makespan, tl.Makespan)
	}
}

func TestMasterBusyAccounting(t *testing.T) {
	res, err := Run(Config{Procs: workers3(), Items: 30, ChunkSize: 10, RequestOverhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 chunks, each with 1s overhead plus its transfer time.
	if res.MasterBusy < 3 {
		t.Errorf("master busy %g, want at least the 3s of request overheads", res.MasterBusy)
	}
	chunks := 0
	for _, w := range res.Workers {
		chunks += w.Chunks
	}
	if chunks != 3 {
		t.Errorf("%d chunks, want 3", chunks)
	}
	if math.IsNaN(res.Makespan) {
		t.Error("NaN makespan")
	}
}
