package lint

// MutexChan flags blocking channel operations performed while a
// sync.Mutex (or RWMutex) is held. The rank-per-goroutine runtime
// guards World state with World.mu while every rank also parks on
// channel mailboxes; a channel send, receive, channel range or
// defaultless select under the lock can park the goroutine with the
// lock held, and every other rank then wedges on World.mu — a
// whole-world deadlock that no fail-fast path can unwind. close() is
// fine (it never blocks); so is a select with a default case.
//
// It is a query on the must-hold lock-set pass (lockset.go): a
// blocking channel operation reached with a non-empty held set. A lock
// held on only one arm of a branch is not held at the join, the same
// trade lockguard and unlockpath make, and test files are out of
// scope like theirs.
var MutexChan = &Analyzer{
	Name: "mutexchan",
	Doc: "no blocking channel operation (send, receive, defaultless select) " +
		"while a sync.Mutex is held: a parked goroutine holding World.mu wedges " +
		"every rank",
	Run: runMutexChan,
}

func runMutexChan(pass *Pass) error {
	reportLockFindings(pass, pass.facts.lockSets().chanFindings)
	return nil
}
