package main

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"serve-hot":      runServeHot,
	"serve-churn":    runServeChurn,
	"solve-table1":   runSolveTable1,
	"lint-synthetic": runLintSynthetic,
}

var workloadOrder = []string{"serve-hot", "serve-churn", "solve-table1", "lint-synthetic"}

// layerMetric is one per-layer metric: its unit and the workloads
// that measure it at full size (its homes). README.md maps each to
// the end-to-end metric it should move.
type layerMetric struct {
	name  string
	unit  string
	homes []string // nil: every workload
}

func (m layerMetric) home(workload string) bool {
	if m.homes == nil {
		return true
	}
	for _, h := range m.homes {
		if h == workload {
			return true
		}
	}
	return false
}

var (
	hot   = []string{"serve-hot"}
	churn = []string{"serve-churn"}
	both  = []string{"serve-hot", "serve-churn"}
	solve = []string{"solve-table1"}
	lints = []string{"lint-synthetic"}
)

var perLayer = []layerMetric{
	{"serve.decode_us", "us", hot},
	{"serve.encode_us", "us", hot},
	{"serve.residual_us", "us", hot},
	{"serve.queue_wait_ms", "ms", churn},
	{"serve.store_hit_ratio", "ratio", both},
	{"serve.shed_ratio", "ratio", both},
	{"platform.order_us", "us", hot},
	{"core.signature_us", "us", hot},
	{"core.solve_ms.cache", "ms", churn},
	{"core.solve_ms.warm", "ms", churn},
	{"core.solve_ms.cold", "ms", churn},
	{"core.cache_hits", "count", churn},
	{"core.warm_resolves", "count", churn},
	{"core.cold_solves", "count", churn},
	{"core.coalesced", "count", churn},
	{"core.plan_reuse_ratio", "ratio", churn},
	{"core.algorithm2_ms", "ms", solve},
	{"core.engine_cold_ms", "ms", solve},
	{"core.plan_build_ms", "ms", solve},
	{"core.resolve_ms", "ms", solve},
	{"core.lookup_us", "us", solve},
	{"core.coarse_refine_ms", "ms", solve},
	{"core.cells_per_us", "cells/us", solve},
	{"core.coarse_band_rel", "ratio", solve},
	{"store.recover_ms", "ms", both},
	{"store.recovered_entries", "count", both},
	{"store.get_us", "us", hot},
	{"store.append_us", "us", churn},
	{"store.appends", "count", churn},
	{"store.wal_bytes", "bytes", churn},
	{"lint.load_ms", "ms", lints},
	{"lint.legacy_ms", "ms", lints},
	{"lint.dataflow_ms", "ms", lints},
	{"lint.ssa_ms", "ms", lints},
	{"lint.lockset_ms", "ms", lints},
	{"lint.findings", "count", lints},
	{"trace.overhead_ms", "ms", nil},
	{"error_rate", "ratio", nil},
}
