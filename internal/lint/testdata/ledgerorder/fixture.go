// Package fixture exercises the ledgerorder analyzer: every Reclaim
// needs a checkpoint append (Deliver) on some preceding path, and the
// ledger v1 codec strings must stay inside Encode/DecodeLedger.
package fixture

import (
	"fmt"

	"repro/internal/fault"
)

// reclaimFirst redistributes data the ledger never recorded: a
// failover successor replaying this ledger would double-deliver.
func reclaimFirst(l *fault.Ledger, at float64) []fault.Range {
	return l.Reclaim(3, at) // want "Reclaim with no checkpoint append"
}

// deliverThenReclaim is the protocol order.
func deliverThenReclaim(l *fault.Ledger, r fault.Range, at float64) []fault.Range {
	l.Deliver(1, r, at)
	return l.Reclaim(1, at)
}

// closureDeliver appends through a local closure, the ftscatter shape;
// the summary table resolves the call to the Deliver inside.
func closureDeliver(l *fault.Ledger, rs []fault.Range, at float64) []fault.Range {
	deliver := func(rank int, rg fault.Range) {
		l.Deliver(rank, rg, at)
	}
	for i, rg := range rs {
		deliver(i, rg)
	}
	return l.Reclaim(0, at)
}

// serve invokes the delivery callback it is handed.
func serve(n int, at float64, land func(rank int, at float64)) {
	for i := 0; i < n; i++ {
		land(i, at)
	}
}

// callbackDeliver appends through a closure handed to a helper as its
// delivery callback, the supervised-collective shape: the call that
// passes it counts as the append.
func callbackDeliver(l *fault.Ledger, r fault.Range, at float64) []fault.Range {
	land := func(rank int, at float64) {
		l.Deliver(rank, r, at)
	}
	serve(3, at, land)
	return l.Reclaim(0, at)
}

// callbackNoAppend hands over a callback that never appends: the
// reclaim still has nothing before it.
func callbackNoAppend(l *fault.Ledger, at float64) []fault.Range {
	serve(3, at, func(int, float64) {})
	return l.Reclaim(0, at) // want "Reclaim with no checkpoint append"
}

// conditionalAppend appends on only one branch: reachability (not
// dominance) is the protocol's ordering relation, so this is clean.
func conditionalAppend(l *fault.Ledger, ok bool, r fault.Range, at float64) []fault.Range {
	if ok {
		l.Deliver(2, r, at)
	}
	return l.Reclaim(2, at)
}

// handRolledHeader forks the codec: when the protocol version bumps,
// this string silently diverges from what DecodeLedger accepts.
func handRolledHeader() string {
	return fmt.Sprintf("ledger v1\n%d\n", 7) // want "hand-rolled ledger codec string"
}

// handRolledReplica forks the replica-line format the same way.
func handRolledReplica() string {
	return fmt.Sprintf("replica %d %d\n", 1, 2) // want "hand-rolled ledger codec string"
}

// roundTrip serializes through the codec: the only sanctioned path.
func roundTrip(l *fault.Ledger) (*fault.Ledger, error) {
	return fault.DecodeLedger(l.Encode())
}
