package fault

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the replicated delivery ledger behind root
// failover. The single-port root of the paper's model is a single
// point of failure: if it dies mid-scatter, the survivors must agree
// on (a) which item ranges already landed where, so nothing is sent
// twice, and (b) who takes over as root. The ledger answers both. The
// serving root appends a checkpoint after every confirmed send and
// replicates the (tiny, metadata-only) log to every rank currently
// holding data — a piggyback on the acknowledgement, charged zero
// virtual time. Re-election is then deterministic: the lowest-ranked
// survivor holding a fresh ledger copy wins, and resumes the scatter
// from the last checkpoint by re-solving the paper's distribution
// problem over the survivors for the unconfirmed remainder only.

// Range is a half-open interval [Lo, Hi) of item indices into the
// buffer being scattered (or, for gathers, a degenerate one-slot range
// marking a rank's contribution).
type Range struct {
	Lo, Hi int
}

// Len returns the number of items in the range.
func (r Range) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// RangeLen sums the lengths of a range list.
func RangeLen(ranges []Range) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// CoalesceRanges sorts a range list by Lo and merges adjacent or
// overlapping entries.
func CoalesceRanges(ranges []Range) []Range {
	var out []Range
	for _, r := range ranges {
		if r.Len() > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	w := 0
	for _, r := range out {
		if w > 0 && r.Lo <= out[w-1].Hi {
			if r.Hi > out[w-1].Hi {
				out[w-1].Hi = r.Hi
			}
			continue
		}
		out[w] = r
		w++
	}
	return out[:w]
}

// SplitRanges cuts a coalesced range list into consecutive chunks of
// the given sizes. The sizes must sum to at most RangeLen(ranges).
func SplitRanges(ranges []Range, sizes []int) [][]Range {
	out := make([][]Range, len(sizes))
	i, off := 0, 0 // position inside ranges
	for s, size := range sizes {
		for size > 0 && i < len(ranges) {
			r := ranges[i]
			avail := r.Len() - off
			take := size
			if take > avail {
				take = avail
			}
			out[s] = append(out[s], Range{Lo: r.Lo + off, Hi: r.Lo + off + take})
			size -= take
			off += take
			if off == r.Len() {
				i, off = i+1, 0
			}
		}
	}
	return out
}

// LedgerOp classifies a ledger checkpoint.
type LedgerOp int

const (
	// OpDeliver records a confirmed transfer: Rank now holds Range.
	OpDeliver LedgerOp = iota
	// OpReclaim records that Rank was declared dead and Range (one of
	// its holdings) re-entered the undelivered pool.
	OpReclaim
)

// String names the op.
func (o LedgerOp) String() string {
	if o == OpDeliver {
		return "deliver"
	}
	return "reclaim"
}

// Checkpoint is one ledger entry.
type Checkpoint struct {
	// Seq is the entry's 1-based sequence number.
	Seq int
	// Op classifies the entry.
	Op LedgerOp
	// Rank is the holder, in the numbering of the world running the
	// collective that owns the ledger.
	Rank int
	// Range is the item range delivered or reclaimed.
	Range Range
	// At is the virtual time of the confirmation.
	At float64
}

// Ledger is the append-only delivery log. It is not safe for
// concurrent use; in the runtime it lives inside a collective's
// single-threaded outcome computation.
type Ledger struct {
	entries  []Checkpoint
	holdings map[int][]Range
	replicas map[int]int // rank -> Seq its copy extends through
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		holdings: make(map[int][]Range),
		replicas: make(map[int]int),
	}
}

// Seq returns the latest sequence number (0 for an empty ledger).
func (l *Ledger) Seq() int { return len(l.entries) }

// Deliver appends a checkpoint recording that rank holds r, confirmed
// at virtual time `at`.
func (l *Ledger) Deliver(rank int, r Range, at float64) Checkpoint {
	cp := Checkpoint{Seq: len(l.entries) + 1, Op: OpDeliver, Rank: rank, Range: r, At: at}
	l.entries = append(l.entries, cp)
	l.holdings[rank] = CoalesceRanges(append(l.holdings[rank], r))
	return cp
}

// Reclaim appends checkpoints recording that the rank died and its
// holdings re-entered the pool; it returns the reclaimed ranges. The
// rank's replica of the ledger metadata is untouched — a dead rank is
// simply never a candidate in ElectRootEligible.
func (l *Ledger) Reclaim(rank int, at float64) []Range {
	held := l.holdings[rank]
	delete(l.holdings, rank)
	for _, r := range held {
		l.entries = append(l.entries, Checkpoint{
			Seq: len(l.entries) + 1, Op: OpReclaim, Rank: rank, Range: r, At: at,
		})
	}
	return held
}

// Replicate marks the rank as holding a copy of the ledger through the
// current sequence number.
func (l *Ledger) Replicate(rank int) { l.replicas[rank] = len(l.entries) }

// ReplicateHolders refreshes the replica of every rank currently
// holding data — the metadata piggyback the serving root performs on
// each acknowledged send.
func (l *Ledger) ReplicateHolders() {
	for rank := range l.holdings {
		l.replicas[rank] = len(l.entries)
	}
}

// ReplicaSeq returns the sequence number the rank's ledger copy
// extends through, or -1 if the rank never received a copy.
func (l *Ledger) ReplicaSeq(rank int) int {
	seq, ok := l.replicas[rank]
	if !ok {
		return -1
	}
	return seq
}

// ElectRootEligible returns the deterministic failover winner among the
// eligible survivors: the one whose ledger replica is freshest, ties
// going to the lowest rank; ok is false when there are no survivors. A
// survivor for which eligible returns false — typically a replica that
// is itself on a partitioned site, unreachable at election time — is
// skipped deterministically instead of being treated as freshest. A
// nil predicate makes every survivor eligible. When no survivor is
// eligible (every candidate partitioned away from the electorate) the
// restriction is dropped and the plain freshest-replica rule decides,
// so the election never dead-ends while survivors exist.
func (l *Ledger) ElectRootEligible(survivors []int, eligible func(rank int) bool) (int, bool) {
	winner, best, ok := -1, -2, false
	for _, r := range survivors {
		if eligible != nil && !eligible(r) {
			continue
		}
		seq := l.ReplicaSeq(r)
		if !ok || seq > best || (seq == best && r < winner) {
			winner, best, ok = r, seq, true
		}
	}
	if !ok && eligible != nil {
		return l.ElectRootEligible(survivors, nil)
	}
	return winner, ok
}

// Holdings returns the rank's confirmed item ranges, coalesced and
// sorted by Lo.
func (l *Ledger) Holdings(rank int) []Range {
	return append([]Range(nil), l.holdings[rank]...)
}

// Held returns the number of items the rank currently holds.
func (l *Ledger) Held(rank int) int { return RangeLen(l.holdings[rank]) }

// Holders returns the ranks currently holding data, sorted.
func (l *Ledger) Holders() []int {
	out := make([]int, 0, len(l.holdings))
	for rank := range l.holdings {
		out = append(out, rank)
	}
	sort.Ints(out)
	return out
}

// Entries returns a copy of the checkpoint log.
func (l *Ledger) Entries() []Checkpoint {
	return append([]Checkpoint(nil), l.entries...)
}

// VerifyExactlyOnce checks the exactly-once invariant at scatter
// completion: the current holdings cover [0, n) with no overlap and no
// gap.
func (l *Ledger) VerifyExactlyOnce(n int) error {
	var all []Range
	total := 0
	for _, held := range l.holdings {
		//scatterlint:ignore detorder CoalesceRanges sorts by Lo before merging, so map iteration order never reaches a caller
		all = append(all, held...)
		total += RangeLen(held)
	}
	merged := CoalesceRanges(all)
	covered := RangeLen(merged)
	if covered != total {
		return fmt.Errorf("fault: ledger holds overlapping ranges: %d items held, %d distinct", total, covered)
	}
	if n == 0 {
		if covered != 0 {
			return fmt.Errorf("fault: ledger holds %d items, want 0", covered)
		}
		return nil
	}
	if len(merged) != 1 || merged[0].Lo != 0 || merged[0].Hi != n {
		return fmt.Errorf("fault: ledger covers %v, want [{0 %d}]", merged, n)
	}
	return nil
}

// Encode serializes the ledger in its documented text format (see
// DESIGN.md §9): a version line, one line per checkpoint, then one per
// replica.
func (l *Ledger) Encode() []byte {
	var sb strings.Builder
	sb.WriteString("ledger v1\n")
	for _, cp := range l.entries {
		fmt.Fprintf(&sb, "%d %s %d %d %d %g\n", cp.Seq, cp.Op, cp.Rank, cp.Range.Lo, cp.Range.Hi, cp.At)
	}
	ranks := make([]int, 0, len(l.replicas))
	for r := range l.replicas {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		fmt.Fprintf(&sb, "replica %d %d\n", r, l.replicas[r])
	}
	return []byte(sb.String())
}

// DecodeLedger parses the Encode format and replays it into a fresh
// ledger, restoring entries, holdings and replicas.
func DecodeLedger(data []byte) (*Ledger, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != "ledger v1" {
		return nil, fmt.Errorf("fault: ledger header %q, want \"ledger v1\"", firstLine(lines))
	}
	l := NewLedger()
	for _, line := range lines[1:] {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "replica" {
			var rank, seq int
			if _, err := fmt.Sscanf(line, "replica %d %d", &rank, &seq); err != nil {
				return nil, fmt.Errorf("fault: bad replica line %q: %w", line, err)
			}
			l.replicas[rank] = seq
			continue
		}
		var seq, rank, lo, hi int
		var op string
		var at float64
		if _, err := fmt.Sscanf(line, "%d %s %d %d %d %g", &seq, &op, &rank, &lo, &hi, &at); err != nil {
			return nil, fmt.Errorf("fault: bad checkpoint line %q: %w", line, err)
		}
		if seq != len(l.entries)+1 {
			return nil, fmt.Errorf("fault: checkpoint %q out of sequence, want seq %d", line, len(l.entries)+1)
		}
		switch op {
		case "deliver":
			l.entries = append(l.entries, Checkpoint{Seq: seq, Op: OpDeliver, Rank: rank, Range: Range{lo, hi}, At: at})
			l.holdings[rank] = CoalesceRanges(append(l.holdings[rank], Range{lo, hi}))
		case "reclaim":
			l.entries = append(l.entries, Checkpoint{Seq: seq, Op: OpReclaim, Rank: rank, Range: Range{lo, hi}, At: at})
			l.holdings[rank] = subtractRange(l.holdings[rank], Range{lo, hi})
			if len(l.holdings[rank]) == 0 {
				delete(l.holdings, rank)
			}
		default:
			return nil, fmt.Errorf("fault: unknown ledger op %q", op)
		}
	}
	return l, nil
}

// firstLine returns the first line, for error messages.
func firstLine(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return lines[0]
}

// subtractRange removes cut from every range in the list.
func subtractRange(ranges []Range, cut Range) []Range {
	var out []Range
	for _, r := range ranges {
		if cut.Hi <= r.Lo || r.Hi <= cut.Lo {
			out = append(out, r)
			continue
		}
		if r.Lo < cut.Lo {
			out = append(out, Range{r.Lo, cut.Lo})
		}
		if cut.Hi < r.Hi {
			out = append(out, Range{cut.Hi, r.Hi})
		}
	}
	return out
}
