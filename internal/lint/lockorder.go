package lint

// LockOrder proves the package's lock-acquisition graph acyclic. An
// edge A → B is recorded whenever a lock of class B is acquired —
// directly, through a summarized same-package callee or closure, or
// through a cross-package API in the apiLockAcquires table — while a
// lock of class A is held. Any cycle is a potential deadlock: two
// goroutines entering the cycle from different classes block each
// other forever. Each cycle is reported once, in canonical rotation,
// with the witness acquisition of every edge. A report means the
// *possibility* is real in the call graph even if today's schedules
// never interleave the two paths; break it by ordering the
// acquisitions or narrowing one critical section. The known hole is
// callbacks: a function value passed to another package and invoked
// under that package's lock contributes no edge here.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "lock ordering: the graph of which lock classes are acquired while others " +
		"are held must be acyclic; cycles are reported with both witness paths",
	Run: runLockOrder,
}

func runLockOrder(pass *Pass) error {
	reportLockFindings(pass, pass.facts.lockSets().orderFindings)
	return nil
}
