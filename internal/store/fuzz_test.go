package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
			before, err := s.Size()
			if err != nil {
				t.Fatal(err)
			}
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
			if after, err := s.Size(); err != nil || after != before {
				t.Fatalf("re-appends moved the log from %d to %d bytes (%v)", before, after, err)
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
