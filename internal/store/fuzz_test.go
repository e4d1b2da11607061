package store

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzWALRecover builds a valid WAL from a seeded batch of entries
// whose signatures come from a small pool, so one signature carries
// several item counts (after each append it re-appends an earlier
// entry, identical and then conflicting, and neither may write), then
// applies an arbitrary byte-level truncation and a one-byte mutation,
// and asserts the recovery contract: Open never panics and never
// errors on corruption, the recovered entries are exactly a prefix of
// the committed sequence with every survivor bit-identical to what was
// appended, and recovery is idempotent — a second Open of the repaired
// file is clean and recovers the same prefix.
//
// Committed seeds cover the interesting strata: no damage, a cut in
// the middle of a frame, a flipped CRC byte, a flipped payload byte,
// damage to the version header, and a same-value "flip" (no-op).
func FuzzWALRecover(f *testing.F) {
	f.Add(int64(1), uint8(4), uint32(1<<30), uint32(0), byte(0))     // no truncation, header byte 0 "flipped" to 0? mutated below
	f.Add(int64(2), uint8(6), uint32(200), uint32(150), byte(0x5a))  // cut + flip mid-log
	f.Add(int64(3), uint8(1), uint32(1<<30), uint32(12), byte(0xff)) // flip inside the first frame header
	f.Add(int64(4), uint8(8), uint32(40), uint32(2), byte(0x00))     // cut right after the version header
	f.Add(int64(5), uint8(3), uint32(1<<30), uint32(3), byte('w'))   // damage the version header itself
	f.Add(int64(6), uint8(5), uint32(9999), uint32(77), byte(0x01))  // cut beyond EOF (no-op), small flip

	f.Fuzz(func(t *testing.T, seed int64, nEntries uint8, cut uint32, pos uint32, val byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "plans.wal")
		s, _, err := Open(path)
		if err != nil {
			t.Fatalf("open fresh: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		// Signatures come from a small pool, so several item counts
		// share one and recovery reaches an index with more than one
		// entry per signature. Keys stay distinct: a drawn key already
		// committed gets one more item on its first share.
		pool := make([]string, 1+rng.Intn(3))
		for i := range pool {
			pool[i] = fmt.Sprintf("lin(0x1.%xp-%d)|fuzz%d", rng.Intn(1<<16), 1+rng.Intn(20), i)
		}
		k := 1 + int(nEntries)%8
		committed := make([]Entry, k)
		used := make(map[string]bool)
		for i := range committed {
			p := 2 + rng.Intn(5)
			dist := make([]int, p)
			items := 0
			for j := range dist {
				dist[j] = rng.Intn(1000)
				items += dist[j]
			}
			sig := pool[rng.Intn(len(pool))]
			for used[fmt.Sprintf("%s#%d", sig, items)] {
				dist[0]++
				items++
			}
			used[fmt.Sprintf("%s#%d", sig, items)] = true
			committed[i] = Entry{
				Sig:      sig,
				Items:    items,
				Makespan: rng.Float64() * 1000,
				Dist:     dist,
			}
			if err := s.Append(committed[i]); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			// Re-append an earlier entry: identical, a no-op; with one
			// item moved between its first two shares, a conflict.
			// Neither may write a frame.
			before := walFile(t, path)
			again := committed[rng.Intn(i+1)]
			if err := s.Append(again); err != nil {
				t.Fatalf("identical re-append of %s#%d: %v", again.Sig, again.Items, err)
			}
			conflict := again
			conflict.Dist = append([]int(nil), again.Dist...)
			if conflict.Dist[0] > 0 {
				conflict.Dist[0]--
				conflict.Dist[1]++
			} else {
				conflict.Makespan++
			}
			if err := s.Append(conflict); err == nil {
				t.Fatalf("conflicting append for %s#%d accepted", again.Sig, again.Items)
			}
			if after := walFile(t, path); !bytes.Equal(after, before) {
				t.Fatalf("re-appends changed the log from %d to %d bytes", len(before), len(after))
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 {
			data[int(pos)%len(data)] = val
		}
		mutPath := filepath.Join(dir, "mut.wal")
		if err := os.WriteFile(mutPath, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Recovery must never panic or error on corruption.
		s2, info, err := Open(mutPath)
		if err != nil {
			t.Fatalf("recovery errored on corrupt input: %v", err)
		}
		checkPrefix(t, s2, committed, info)
		if err := s2.Close(); err != nil {
			t.Fatalf("close recovered: %v", err)
		}

		// Idempotence: the repaired file recovers cleanly to the same
		// prefix.
		s3, info2, err := Open(mutPath)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if info2.TornBytes != 0 || info2.Reset {
			t.Fatalf("second recovery not clean: %+v", info2)
		}
		if info2.Records != info.Records || s3.Len() != info.Entries {
			t.Fatalf("second recovery found %d records / %d entries, first found %d / %d",
				info2.Records, s3.Len(), info.Records, info.Entries)
		}
		checkPrefix(t, s3, committed, info2)
		s3.Close()
	})
}

// checkPrefix asserts the recovered store holds exactly committed[:m]
// for some m, each entry bit-identical to what was appended.
func checkPrefix(t *testing.T, s *Store, committed []Entry, info RecoveryInfo) {
	t.Helper()
	m := info.Records
	if m > len(committed) {
		t.Fatalf("recovered %d records from a log of %d", m, len(committed))
	}
	if s.Len() != m {
		// Committed keys are distinct, so live entries must equal
		// replayed records.
		t.Fatalf("recovered %d records but %d live entries", m, s.Len())
	}
	for i := 0; i < m; i++ {
		want := committed[i]
		got, ok := s.Get(want.Sig, want.Items)
		if !ok {
			t.Fatalf("recovery kept %d records but committed entry %d is missing: not a prefix", m, i)
		}
		if !equalEntry(got, want) {
			t.Fatalf("recovered entry %d = %+v, want bit-identical %+v", i, got, want)
		}
	}
}

// The key space FuzzStoreIndex draws from: a few signatures, item
// counts from 0 to MaxInt, shares from 0 to MaxInt, and makespans with
// awkward bits.
var (
	indexSigs      = []string{"s0", "lin(0x1p-3)|aff(0x1p-4,0x1.8p-2)", "s#2"}
	indexItems     = []int{0, 5, 300, 1 << 20, math.MaxInt}
	indexShares    = []int{0, 1, 127, 128, 1 << 14, math.MaxInt - 1, math.MaxInt}
	indexMakespans = []float64{0, 0.5, 403.97522960000003, math.MaxFloat64, 5e-324}
)

// indexModel is FuzzStoreIndex's model of the index: the live entry of
// each (signature, item count).
type indexModel map[string]map[int]Entry

func (m indexModel) put(e Entry) {
	if m[e.Sig] == nil {
		m[e.Sig] = make(map[int]Entry)
	}
	m[e.Sig][e.Items] = e
}

func (m indexModel) get(sig string, items int) (Entry, bool) {
	e, ok := m[sig][items]
	return e, ok
}

// entries returns the model's entries in the order of sig, then items.
func (m indexModel) entries() []Entry {
	var all []Entry
	for _, byItems := range m {
		for _, e := range byItems {
			all = append(all, e)
		}
	}
	slices.SortFunc(all, func(a, b Entry) int {
		return cmp.Or(strings.Compare(a.Sig, b.Sig), cmp.Compare(a.Items, b.Items))
	})
	return all
}

// oracleRecover is what recovery must index from a log body (the bytes
// after the version header): every frame up to the first one whose
// header, length, CRC or payload is bad, as decodePayload reads it,
// the last record of a key winning. It returns the model and the
// number of records replayed.
func oracleRecover(wal []byte) (indexModel, int) {
	m := make(indexModel)
	records := 0
	for {
		nl := bytes.IndexByte(wal, '\n')
		if nl < 0 {
			return m, records
		}
		plen, crc, ok := parseFrameHeader(wal[:nl+1])
		if !ok || len(wal)-nl-1 < plen {
			return m, records
		}
		payload := wal[nl+1 : nl+1+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			return m, records
		}
		e, err := decodePayload(payload)
		if err != nil {
			return m, records
		}
		m.put(e)
		records++
		wal = wal[nl+1+plen:]
	}
}

// drawEntry draws a valid entry from the key space: a signature, an
// item count, one to five shares summing to it and a makespan.
func drawEntry(next func() byte) Entry {
	e := Entry{
		Sig:   indexSigs[int(next())%len(indexSigs)],
		Items: indexItems[int(next())%len(indexItems)],
	}
	left := e.Items
	for range int(next()) % 5 {
		d := min(left, indexShares[int(next())%len(indexShares)])
		e.Dist = append(e.Dist, d)
		left -= d
	}
	e.Dist = append(e.Dist, left)
	e.Makespan = indexMakespans[int(next())%len(indexMakespans)]
	return e
}

// conflicting returns a valid entry for e's key that differs from it:
// another makespan, a share count one higher, or one item moved
// between the first two shares.
func conflicting(e Entry, how byte) Entry {
	c := e
	c.Dist = slices.Clone(e.Dist)
	switch {
	case how%3 == 0:
		c.Makespan = e.Makespan / 2
		if c.Makespan == e.Makespan {
			c.Makespan = 1
		}
	case how%3 == 1 && len(c.Dist) >= 2 && c.Dist[0] > 0:
		c.Dist[0]--
		c.Dist[1]++
	default:
		c.Dist = append(c.Dist, 0)
	}
	return c
}

// walBody frames entries as a log body, for FuzzStoreIndex's seeds.
func walBody(entries ...Entry) []byte {
	var b []byte
	for _, e := range entries {
		b = append(b, frame(e)...)
	}
	return b
}

// FuzzStoreIndex holds the index to a plain map model. It recovers an
// arbitrary log body, then runs a program of operations drawn from ops
// bytes: appends of entries drawn from a small key space (new keys, and
// drawn keys that are already live: identical or conflicting), identical
// re-appends and conflicting appends of live entries, and reopens, with
// or without a Compact first. Share counts vary within one signature,
// and shares run from 0 to MaxInt. After recovery and after every
// operation, Get must return exactly the model's entry for every key
// (and nothing for a key the model lacks), and Len the model's size; an
// identical or conflicting append must not write. At the end a reopen,
// and a Compact followed by a reopen, must recover the model again.
//
// The seeds' log bodies repeat keys with encodings of different
// lengths (a superseding record longer, shorter or as long as the
// one it replaces), so recovery leaves dead arena bytes behind them.
func FuzzStoreIndex(f *testing.F) {
	sig := indexSigs[0]
	f.Add([]byte(nil), []byte{0, 0, 1, 0, 0, 2, 0, 1, 0, 2, 3, 3, 1, 2, 4, 3, 2, 0, 4, 1, 5, 4, 4, 6, 0, 7})
	f.Add(walBody(
		Entry{Sig: sig, Items: 300, Makespan: 1, Dist: []int{300}},
		Entry{Sig: sig, Items: 5, Makespan: 0.5, Dist: []int{5}},
		Entry{Sig: sig, Items: 300, Makespan: 2, Dist: []int{100, 100, 100}},
		Entry{Sig: sig, Items: 0, Makespan: 3, Dist: []int{0, 0}},
		Entry{Sig: sig, Items: 0, Makespan: 3, Dist: []int{0}},
	), []byte{1, 0, 2, 1, 7, 0, 0, 2, 1, 1, 0, 3})
	f.Add(walBody(
		Entry{Sig: sig, Items: 5, Makespan: 0.5, Dist: []int{1, 4}},
		Entry{Sig: sig, Items: 5, Makespan: 0.25, Dist: []int{4, 1}},
		Entry{Sig: indexSigs[1], Items: math.MaxInt, Makespan: 0, Dist: []int{math.MaxInt}},
		Entry{Sig: indexSigs[1], Items: math.MaxInt, Makespan: 5e-324, Dist: []int{0, math.MaxInt - 1, 1}},
		Entry{Sig: indexSigs[1], Items: 0, Makespan: 0, Dist: []int{0, 0, 0, 0}},
	), []byte{2, 3, 7, 0, 1, 4, 3, 6, 1, 5, 3})
	f.Add(walBody(
		Entry{Sig: "other", Items: 1 << 20, Makespan: 7, Dist: []int{1 << 14, 1<<20 - 1<<14}},
		Entry{Sig: "other", Items: 1 << 20, Makespan: 7, Dist: []int{1 << 20}},
		Entry{Sig: sig, Items: 128, Makespan: 1, Dist: []int{127, 1}},
		Entry{Sig: sig, Items: 128, Makespan: 1, Dist: []int{128}},
	), []byte{3, 1, 0, 4, 0, 1, 2, 1, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, wal, ops []byte) {
		path := filepath.Join(t.TempDir(), "plans.wal")
		if err := os.WriteFile(path, append([]byte(header), wal...), 0o644); err != nil {
			t.Fatal(err)
		}
		model, records := oracleRecover(wal)
		s, info, err := Open(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer func() { s.Close() }()
		if info.Records != records || info.Entries != len(model.entries()) {
			t.Fatalf("recovery = %+v, want %d records, %d entries", info, records, len(model.entries()))
		}
		check := func(step string) {
			t.Helper()
			want := model.entries()
			if s.Len() != len(want) {
				t.Fatalf("%s: Len = %d, want %d", step, s.Len(), len(want))
			}
			for _, e := range want {
				if got, ok := s.Get(e.Sig, e.Items); !ok || !equalEntry(got, e) {
					t.Fatalf("%s: Get(%s, %d) = %+v, %v; want %+v", step, e.Sig, e.Items, got, ok, e)
				}
			}
			for _, sig := range indexSigs {
				for _, items := range indexItems {
					if _, live := model.get(sig, items); !live {
						if got, ok := s.Get(sig, items); ok {
							t.Fatalf("%s: Get(%s, %d) = %+v for a key never appended", step, sig, items, got)
						}
					}
				}
			}
		}
		// reopen closes and reopens the store, after a Compact that must
		// leave the index as it was when compact is set.
		reopen := func(compact bool) {
			t.Helper()
			if compact {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				check("Compact")
			}
			recs := s.Records()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, info, err = Open(path); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			n := len(model.entries())
			if info.Records != recs || info.Entries != n || info.TornBytes != 0 || (compact && recs != n) {
				t.Fatalf("reopen (compact %v) = %+v, want %d records, %d entries", compact, info, recs, n)
			}
		}
		check("recovery")
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		// appendExpect appends e and checks the outcome the model
		// predicts: a new key is written, a live one is not, and only an
		// identical one is accepted.
		appendExpect := func(e Entry) {
			t.Helper()
			before := walFile(t, path)
			cur, live := model.get(e.Sig, e.Items)
			err := s.Append(e)
			switch {
			case !live && err != nil:
				t.Fatalf("append of new %s#%d: %v", e.Sig, e.Items, err)
			case live && equalEntry(cur, e) && err != nil:
				t.Fatalf("identical re-append of %s#%d: %v", e.Sig, e.Items, err)
			case live && !equalEntry(cur, e) && err == nil:
				t.Fatalf("conflicting append %+v over %+v accepted", e, cur)
			}
			if !live {
				model.put(e)
			} else if after := walFile(t, path); !bytes.Equal(after, before) {
				t.Fatalf("a re-append of live %s#%d changed the log from %d to %d bytes", e.Sig, e.Items, len(before), len(after))
			}
		}
		for step := 0; len(ops) > 0 && step < 64; step++ {
			op := next()
			live := model.entries()
			switch op % 4 {
			case 0:
				appendExpect(drawEntry(next))
			case 1:
				if len(live) > 0 {
					appendExpect(live[int(next())%len(live)])
				}
			case 2:
				if len(live) > 0 {
					appendExpect(conflicting(live[int(next())%len(live)], next()))
				}
			case 3:
				reopen(op&4 != 0)
			}
			check(fmt.Sprintf("step %d (op %d)", step, op%4))
		}
		reopen(false)
		check("final reopen")
		reopen(true)
		check("reopen after Compact")
	})
}
