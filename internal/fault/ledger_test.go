package fault

import (
	"testing"
)

func rangesEqual(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoalesceRanges(t *testing.T) {
	cases := []struct {
		in, want []Range
	}{
		{nil, nil},
		{[]Range{{0, 2}}, []Range{{0, 2}}},
		{[]Range{{4, 6}, {0, 2}, {2, 4}}, []Range{{0, 6}}},
		{[]Range{{0, 3}, {1, 2}}, []Range{{0, 3}}},
		{[]Range{{0, 2}, {3, 5}}, []Range{{0, 2}, {3, 5}}},
		{[]Range{{0, 0}, {2, 1}}, nil}, // empty ranges vanish
	}
	for _, c := range cases {
		if got := CoalesceRanges(c.in); !rangesEqual(got, c.want) {
			t.Errorf("CoalesceRanges(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitRanges(t *testing.T) {
	pool := []Range{{0, 3}, {5, 9}}
	parts := SplitRanges(pool, []int{2, 0, 4, 1})
	want := [][]Range{
		{{0, 2}},
		nil,
		{{2, 3}, {5, 8}},
		{{8, 9}},
	}
	if len(parts) != len(want) {
		t.Fatalf("got %d parts, want %d", len(parts), len(want))
	}
	for i := range want {
		if !rangesEqual(parts[i], want[i]) {
			t.Errorf("part %d = %v, want %v", i, parts[i], want[i])
		}
	}
}

func TestLedgerDeliverReclaim(t *testing.T) {
	l := NewLedger()
	l.Deliver(0, Range{0, 2}, 1)
	l.Deliver(1, Range{2, 6}, 2)
	l.Deliver(0, Range{2, 3}, 3) // adjacency coalesces — ranks 0, 1 overlap on purpose here
	if got := l.Held(0); got != 3 {
		t.Errorf("Held(0) = %d, want 3", got)
	}
	if got := l.Holdings(0); !rangesEqual(got, []Range{{0, 3}}) {
		t.Errorf("Holdings(0) = %v, want [{0 3}]", got)
	}
	if err := l.VerifyExactlyOnce(6); err == nil {
		t.Error("overlapping holdings passed VerifyExactlyOnce")
	}

	reclaimed := l.Reclaim(0, 4)
	if !rangesEqual(reclaimed, []Range{{0, 3}}) {
		t.Errorf("Reclaim(0) = %v, want [{0 3}]", reclaimed)
	}
	if l.Held(0) != 0 {
		t.Errorf("Held(0) after reclaim = %d, want 0", l.Held(0))
	}
	if got := l.Holders(); !intsEq(got, []int{1}) {
		t.Errorf("Holders = %v, want [1]", got)
	}
	// 3 delivers + 1 reclaim entry.
	if l.Seq() != 4 {
		t.Errorf("Seq = %d, want 4", l.Seq())
	}
}

func TestLedgerVerifyExactlyOnce(t *testing.T) {
	l := NewLedger()
	l.Deliver(0, Range{0, 2}, 1)
	l.Deliver(1, Range{2, 8}, 2)
	if err := l.VerifyExactlyOnce(8); err != nil {
		t.Errorf("full cover rejected: %v", err)
	}
	if err := l.VerifyExactlyOnce(9); err == nil {
		t.Error("gap at the end accepted")
	}
	if err := NewLedger().VerifyExactlyOnce(0); err != nil {
		t.Errorf("empty ledger with n=0 rejected: %v", err)
	}
	if err := NewLedger().VerifyExactlyOnce(1); err == nil {
		t.Error("empty ledger with n=1 accepted")
	}
}

func TestLedgerElection(t *testing.T) {
	l := NewLedger()
	// Empty ledger: everyone is trivially fresh, lowest survivor wins.
	if r, ok := l.ElectRoot([]int{2, 1, 3}); !ok || r != 1 {
		t.Errorf("empty-ledger election = %d, %v; want 1, true", r, ok)
	}
	if _, ok := l.ElectRoot(nil); ok {
		t.Error("election with no survivors succeeded")
	}

	l.Deliver(2, Range{0, 4}, 1)
	l.ReplicateHolders() // rank 2's copy extends through seq 1
	l.Deliver(3, Range{4, 8}, 2)
	l.Replicate(3) // rank 3's copy extends through seq 2

	// Rank 3 has the freshest copy; rank 1 never got one (-1).
	if got := l.ReplicaSeq(1); got != -1 {
		t.Errorf("ReplicaSeq(1) = %d, want -1", got)
	}
	if !l.Fresh(3) || l.Fresh(2) {
		t.Errorf("Fresh(3), Fresh(2) = %v, %v; want true, false", l.Fresh(3), l.Fresh(2))
	}
	if r, _ := l.ElectRoot([]int{1, 2, 3}); r != 3 {
		t.Errorf("election = %d, want freshest rank 3", r)
	}
	// Without rank 3, the stale-but-replicated rank 2 beats the
	// copy-less rank 1.
	if r, _ := l.ElectRoot([]int{1, 2}); r != 2 {
		t.Errorf("election = %d, want rank 2", r)
	}
	// Ties break to the lowest rank.
	l.Replicate(1)
	l.Replicate(2)
	if r, _ := l.ElectRoot([]int{2, 1}); r != 1 {
		t.Errorf("tied election = %d, want lowest rank 1", r)
	}
}

func TestLedgerElectionSkipsUnreachableReplicas(t *testing.T) {
	l := NewLedger()
	l.Deliver(3, Range{0, 4}, 1)
	l.Replicate(3) // rank 3 holds the freshest copy...
	l.Deliver(1, Range{4, 6}, 2)
	l.Replicate(1) // ...no wait: rank 1 does now
	l.Replicate(2) // rank 2 is one entry stale
	l.Deliver(2, Range{6, 8}, 3)

	reachable := map[int]bool{2: true, 3: true}
	eligible := func(r int) bool { return reachable[r] }

	// Rank 1 has the freshest replica but sits on a partitioned site:
	// the election must skip it deterministically, not crown it.
	if r, ok := l.ElectRootEligible([]int{1, 2, 3}, eligible); !ok || r != 2 {
		t.Errorf("election = %d, %v; want reachable rank 2 (freshest eligible)", r, ok)
	}
	// The same electorate with everyone reachable crowns rank 1.
	if r, _ := l.ElectRootEligible([]int{1, 2, 3}, nil); r != 1 {
		t.Errorf("unrestricted election = %d, want 1", r)
	}
	// Replays are deterministic.
	for i := 0; i < 8; i++ {
		if r, _ := l.ElectRootEligible([]int{3, 1, 2}, eligible); r != 2 {
			t.Fatalf("replay %d elected %d, want 2", i, r)
		}
	}
	// All candidates unreachable: the restriction is dropped rather
	// than dead-ending — the plain freshest rule decides.
	if r, ok := l.ElectRootEligible([]int{1, 2, 3}, func(int) bool { return false }); !ok || r != 1 {
		t.Errorf("all-unreachable election = %d, %v; want fallback to 1, true", r, ok)
	}
	// No survivors at all still fails.
	if _, ok := l.ElectRootEligible(nil, eligible); ok {
		t.Error("election with no survivors succeeded")
	}
}

func TestLedgerEncodeDecodeRoundTrip(t *testing.T) {
	l := NewLedger()
	l.Deliver(0, Range{0, 2}, 1.5)
	l.Deliver(2, Range{2, 8}, 3.25)
	l.ReplicateHolders()
	l.Reclaim(2, 4)
	l.Replicate(1)

	got, err := DecodeLedger(l.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq() != l.Seq() {
		t.Errorf("decoded Seq = %d, want %d", got.Seq(), l.Seq())
	}
	for _, r := range []int{0, 1, 2} {
		if !rangesEqual(got.Holdings(r), l.Holdings(r)) {
			t.Errorf("decoded Holdings(%d) = %v, want %v", r, got.Holdings(r), l.Holdings(r))
		}
		if got.ReplicaSeq(r) != l.ReplicaSeq(r) {
			t.Errorf("decoded ReplicaSeq(%d) = %d, want %d", r, got.ReplicaSeq(r), l.ReplicaSeq(r))
		}
	}
	ge, le := got.Entries(), l.Entries()
	if len(ge) != len(le) {
		t.Fatalf("decoded %d entries, want %d", len(ge), len(le))
	}
	for i := range le {
		if ge[i] != le[i] {
			t.Errorf("entry %d = %+v, want %+v", i, ge[i], le[i])
		}
	}
}

func TestDecodeLedgerRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a ledger\n",
		"ledger v1\n2 deliver 0 0 2 1\n",    // out of sequence
		"ledger v1\n1 teleport 0 0 2 1\n",   // unknown op
		"ledger v1\n1 deliver zero 0 2 1\n", // unparsable rank
		"ledger v1\nreplica one 1\n",        // unparsable replica
	} {
		if _, err := DecodeLedger([]byte(bad)); err == nil {
			t.Errorf("DecodeLedger(%q) accepted garbage", bad)
		}
	}
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ElectRoot returns the deterministic failover winner among the
// survivors: the lowest-ranked survivor whose ledger copy is freshest
// (highest replica sequence number; an empty ledger makes every
// survivor trivially fresh, so the lowest rank wins). It returns false
// only when there are no survivors.
func (l *Ledger) ElectRoot(survivors []int) (int, bool) {
	return l.ElectRootEligible(survivors, nil)
}

// Fresh reports whether the rank's copy is current.
func (l *Ledger) Fresh(rank int) bool { return l.ReplicaSeq(rank) == len(l.entries) }
