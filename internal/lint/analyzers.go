package lint

// All returns the full scatterlint analyzer suite, in the order
// findings are most useful to read: protocol hazards first, model
// preconditions after, the dataflow analyzers (which assume the local
// invariants above already hold) last.
func All() []*Analyzer {
	return []*Analyzer{
		MPIErrCheck,
		CollectiveOrder,
		CollectiveDeadlock,
		GoroLeak,
		SimClock,
		CostInvariant,
		BandCheck,
		MutexChan,
		PoolAlias,
		DetOrder,
		LedgerOrder,
		LockGuard,
		LockOrder,
		UnlockPath,
	}
}
