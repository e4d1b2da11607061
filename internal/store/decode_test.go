package store

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// decodePayload is the text decoder the store recovered with before it
// parsed from bytes, kept verbatim (its validation included) as the
// oracle FuzzDecodePayload holds decodeRecord and replay to.
func decodePayload(payload []byte) (Entry, error) {
	var e Entry
	lines := strings.Split(strings.TrimSuffix(string(payload), "\n"), "\n")
	if len(lines) != 4 {
		return e, fmt.Errorf("store: payload has %d lines, want 4", len(lines))
	}
	sig, ok := strings.CutPrefix(lines[0], "sig ")
	if !ok {
		return e, fmt.Errorf("store: bad sig line %q", lines[0])
	}
	e.Sig = sig
	itemsStr, ok := strings.CutPrefix(lines[1], "items ")
	if !ok {
		return e, fmt.Errorf("store: bad items line %q", lines[1])
	}
	items, err := strconv.Atoi(itemsStr)
	if err != nil {
		return e, fmt.Errorf("store: bad item count %q: %w", itemsStr, err)
	}
	e.Items = items
	msStr, ok := strings.CutPrefix(lines[2], "makespan ")
	if !ok {
		return e, fmt.Errorf("store: bad makespan line %q", lines[2])
	}
	ms, err := strconv.ParseFloat(msStr, 64)
	if err != nil {
		return e, fmt.Errorf("store: bad makespan %q: %w", msStr, err)
	}
	e.Makespan = ms
	distStr, ok := strings.CutPrefix(lines[3], "dist")
	if !ok {
		return e, fmt.Errorf("store: bad dist line %q", lines[3])
	}
	for _, fld := range strings.Fields(distStr) {
		d, err := strconv.Atoi(fld)
		if err != nil {
			return e, fmt.Errorf("store: bad dist share %q: %w", fld, err)
		}
		e.Dist = append(e.Dist, d)
	}
	if err := oracleValidate(e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// oracleValidate is the entry check decodePayload ran, kept verbatim
// but for the overflow guard checkPlan gained with it: a negative item
// count, or a share beyond what is left of it, is refused.
func oracleValidate(e Entry) error {
	if e.Sig == "" || strings.ContainsAny(e.Sig, " \t\n\r") {
		return fmt.Errorf("store: unusable signature %q", e.Sig)
	}
	if len(e.Dist) == 0 {
		return fmt.Errorf("store: entry for %q has an empty distribution", e.Sig)
	}
	if math.IsNaN(e.Makespan) || math.IsInf(e.Makespan, 0) || e.Makespan < 0 {
		return fmt.Errorf("store: entry for %q has makespan %v", e.Sig, e.Makespan)
	}
	if e.Items < 0 {
		return fmt.Errorf("store: entry for %q has item count %d", e.Sig, e.Items)
	}
	sum := 0
	for _, d := range e.Dist {
		if d < 0 {
			return fmt.Errorf("store: entry for %q has negative share %d", e.Sig, d)
		}
		if d > e.Items-sum {
			return fmt.Errorf("store: entry for %q has shares beyond %d items", e.Sig, e.Items)
		}
		sum += d
	}
	if sum != e.Items {
		return fmt.Errorf("store: entry for %q sums to %d, want %d items", e.Sig, sum, e.Items)
	}
	return nil
}

// equalEntry compares two entries bit for bit.
func equalEntry(a, b Entry) bool {
	return a.Sig == b.Sig && a.Items == b.Items &&
		math.Float64bits(a.Makespan) == math.Float64bits(b.Makespan) && slices.Equal(a.Dist, b.Dist)
}

// FuzzDecodePayload holds recovery's byte-level decoder to the text
// decoder it replaced: on arbitrary payload bytes, replaying the
// payload into an empty index must succeed exactly when decodePayload
// accepts it, and must index one entry bit-identical to the oracle's.
// A second replay of the same bytes takes the known-signature path and
// must leave the index as it was, and the index must not alias the
// payload.
//
// The committed seeds cover the text form's corners: a missing trailing
// newline, a fifth line, a dist line with no shares or no space after
// "dist", white space in the signature, Unicode white space between
// shares, a negative share, a wrong sum, decimal, hex-float, signed and
// special makespans, signed or zero-padded integers, and shares whose
// int sum wraps around to the item count.
func FuzzDecodePayload(f *testing.F) {
	f.Add(encodePayload(testEntry(3)))
	f.Add([]byte("sig a\nitems 3\nmakespan 0x1p+00\ndist 1 2\n"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, wantErr := decodePayload(payload)
		s := &Store{plans: make(map[string]*sigPlans)}
		var rec record
		buf := slices.Clone(payload)
		ok := s.replay(buf, &rec)
		if ok != (wantErr == nil) {
			t.Fatalf("replay accepted=%v, oracle error %v", ok, wantErr)
		}
		if !ok {
			if len(s.plans) != 0 || s.live != 0 {
				t.Fatalf("a rejected payload left %d signatures, %d entries in the index", len(s.plans), s.live)
			}
			return
		}
		if !s.replay(buf, &rec) {
			t.Fatal("replaying an accepted payload again failed")
		}
		clear(buf) // the index must hold its own copies
		if len(s.plans) != 1 || s.live != 1 {
			t.Fatalf("index holds %d signatures, %d entries; want 1, 1", len(s.plans), s.live)
		}
		for sig, p := range s.plans {
			off, found := p.at[want.Items]
			if len(p.at) != 1 || !found {
				t.Fatalf("index for %q holds %d item counts, none for %d", sig, len(p.at), want.Items)
			}
			makespan, dist := p.plan(off)
			got := Entry{Sig: sig, Items: want.Items, Makespan: makespan, Dist: dist}
			if !equalEntry(got, want) {
				t.Fatalf("decoded %+v, oracle %+v", got, want)
			}
		}
	})
}
