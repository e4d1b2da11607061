package lint

// UnlockPath enforces release discipline on every control-flow path:
// a lock acquired in a function must be released (or covered by a
// deferred unlock) on every path to every return, including early
// returns; no path may Lock a mutex it already holds (self-deadlock)
// or RLock one it holds exclusively (upgrade deadlock); and
// Unlock/RUnlock must match the acquisition flavor — (*RWMutex).Unlock
// on a read lock panics at run time. The dataflow is must-hold, so a
// lock held on only one arm of a branch is treated as not held at the
// join: conditional lock/unlock pairs guarded by the same condition
// stay silent rather than risk a false alarm. Paths ending in panic,
// os.Exit or log.Fatal* are exempt — panics run the deferred unlocks
// and exits tear the whole process down.
var UnlockPath = &Analyzer{
	Name: "unlockpath",
	Doc: "release discipline: every acquired lock is released on every path, no " +
		"double-Lock, no RLock upgrade, no Unlock/RUnlock flavor mismatch",
	Run: runUnlockPath,
}

func runUnlockPath(pass *Pass) error {
	reportLockFindings(pass, pass.facts.lockSets().unlockFindings)
	return nil
}
