package lint

// LockGuard machine-checks the //scatterlint:guardedby contracts that
// PRs 8–9 carried only as prose: every read or write of an annotated
// struct field must happen with the guard's lock class held, through
// sync/atomic for `atomic` fields, or before publication for
// `immutable` fields. Guard facts flow through the per-package
// requirement fixpoint (lockset.go), so a helper called under the
// lock is proven, not assumed — and a guarded access reachable
// lock-free from an exported entry point is reported even when every
// in-package caller is disciplined, because external callers cannot
// hold a package-private mutex. Like the other dataflow analyzers it
// weakens toward silence: fresh, unescaped allocations are exempt
// (the constructor exemption) and class matching is
// instance-insensitive.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc: "guarded fields: every access to a //scatterlint:guardedby field must hold " +
		"the declared lock class, use sync/atomic, or precede publication",
	Run: runLockGuard,
}

func runLockGuard(pass *Pass) error {
	reportLockFindings(pass, pass.facts.lockSets().guardFindings)
	return nil
}
