package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func testEntry(i int) Entry {
	p := 3 + i%4
	dist := make([]int, p)
	items := 0
	for j := range dist {
		dist[j] = 100*i + 17*j + 1
		items += dist[j]
	}
	return Entry{
		Sig:      fmt.Sprintf("lin(0x1.%xp-10)|lin(0x1.ap-8);site%d", i, i),
		Items:    items,
		Makespan: 1.5*float64(i) + 0.1,
		Dist:     dist,
	}
}

func openT(t *testing.T, path string) (*Store, RecoveryInfo) {
	t.Helper()
	s, info, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s, info
}

// walFile returns the WAL's bytes as they are on disk, so a check that
// an operation wrote nothing reads the file, not the store's own count.
func walFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, info := openT(t, path)
	if info.Records != 0 || info.TornBytes != 0 || info.Reset {
		t.Fatalf("fresh store recovery = %+v, want zero", info)
	}
	const k = 9
	for i := 0; i < k; i++ {
		if err := s.Append(testEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if s.Len() != k {
		t.Fatalf("Len = %d, want %d", s.Len(), k)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, info := openT(t, path)
	defer s2.Close()
	if info.Records != k || info.Entries != k || info.TornBytes != 0 || info.Reset {
		t.Fatalf("recovery = %+v, want %d clean records", info, k)
	}
	for i := 0; i < k; i++ {
		want := testEntry(i)
		got, ok := s2.Get(want.Sig, want.Items)
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if !equalEntry(got, want) {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestStoreMakespanBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	e := testEntry(0)
	e.Makespan = math.Nextafter(403.97522960000003, 404) // an awkward mantissa
	if err := s.Append(e); err != nil {
		t.Fatalf("append: %v", err)
	}
	s.Close()
	s2, _ := openT(t, path)
	defer s2.Close()
	got, ok := s2.Get(e.Sig, e.Items)
	if !ok {
		t.Fatal("entry missing")
	}
	if math.Float64bits(got.Makespan) != math.Float64bits(e.Makespan) {
		t.Fatalf("makespan bits %x != %x", math.Float64bits(got.Makespan), math.Float64bits(e.Makespan))
	}
}

// TestStoreTornAppend simulates kill -9 mid-append: only a prefix of
// the last frame reaches the disk. Recovery must keep every earlier
// record, truncate the torn tail, and a second recovery must be clean.
func TestStoreTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	const k = 5
	for i := 0; i < k; i++ {
		if err := s.Append(testEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	s.Close()

	torn := frame(testEntry(k))
	for cut := 1; cut < len(torn); cut += 7 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tornPath := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(tornPath, append(append([]byte(nil), data...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, info := openT(t, tornPath)
		if info.Records != k {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, info.Records, k)
		}
		if info.TornBytes != int64(cut) {
			t.Fatalf("cut %d: TornBytes = %d, want %d", cut, info.TornBytes, cut)
		}
		s2.Close()
		s3, info := openT(t, tornPath)
		if info.Records != k || info.TornBytes != 0 {
			t.Fatalf("cut %d: second recovery = %+v, want clean %d records", cut, info, k)
		}
		s3.Close()
	}
}

// TestStoreCorruptMiddle flips one byte inside an early record: every
// record before the damage must survive, everything from it on is
// dropped (prefix semantics).
func TestStoreCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	const k = 6
	offsets := []int64{int64(len(header))}
	for i := 0; i < k; i++ {
		if err := s.Append(testEntry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		sz, err := s.Size()
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, sz)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte inside record 2 (between offsets[2] and [3]).
	for _, at := range []int64{offsets[2], (offsets[2] + offsets[3]) / 2, offsets[3] - 1} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x5a
		p := filepath.Join(t.TempDir(), "corrupt.wal")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, info := openT(t, p)
		if info.Records != 2 {
			t.Fatalf("corrupt @%d: recovered %d records, want 2", at, info.Records)
		}
		if info.TornBytes != int64(len(data))-offsets[2] {
			t.Fatalf("corrupt @%d: TornBytes = %d, want %d", at, info.TornBytes, int64(len(data))-offsets[2])
		}
		for i := 0; i < 2; i++ {
			want := testEntry(i)
			if got, ok := s2.Get(want.Sig, want.Items); !ok || !equalEntry(got, want) {
				t.Fatalf("corrupt @%d: record %d not recovered intact", at, i)
			}
		}
		s2.Close()
	}
}

// TestStoreHeaderCorruption: a damaged version header means nothing in
// the file can be trusted; the store restarts empty rather than erroring.
func TestStoreHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	if err := s.Append(testEntry(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, info := openT(t, path)
	defer s2.Close()
	if !info.Reset || info.Records != 0 || s2.Len() != 0 {
		t.Fatalf("recovery after header damage = %+v len=%d, want reset empty", info, s2.Len())
	}
	// The reset store must be fully usable again.
	if err := s2.Append(testEntry(1)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}

func TestStoreAppendDedupAndConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	defer s.Close()
	e := testEntry(0)
	if err := s.Append(e); err != nil {
		t.Fatal(err)
	}
	before := walFile(t, path)
	if err := s.Append(e); err != nil {
		t.Fatalf("identical re-append: %v", err)
	}
	if after := walFile(t, path); !bytes.Equal(after, before) {
		t.Fatalf("identical re-append changed the log: %d -> %d bytes", len(before), len(after))
	}
	bad := testEntry(0)
	bad.Dist = append([]int(nil), bad.Dist...)
	bad.Dist[0]++
	bad.Dist[1]--
	if err := s.Append(bad); err == nil {
		t.Fatal("conflicting distribution for an existing key must be rejected")
	}
	if after := walFile(t, path); !bytes.Equal(after, before) {
		t.Fatalf("conflicting append changed the log: %d -> %d bytes", len(before), len(after))
	}
}

// TestStoreRejectsOverflowingShares pins two plans whose shares wrap
// an int sum around to the item count: two shares of MaxInt64 for -2
// items, and five shares of 2^62 for 2^62 items. Append, both payload
// decoders and recovery must all refuse them.
func TestStoreRejectsOverflowingShares(t *testing.T) {
	const big = 1 << 62
	cases := []Entry{
		{Sig: "wrap", Items: -2, Dist: []int{math.MaxInt64, math.MaxInt64}},
		{Sig: "wrap", Items: big, Dist: []int{big, big, big, big, big}},
	}
	good := testEntry(1)
	for i, e := range cases {
		path := filepath.Join(t.TempDir(), "plans.wal")
		s, _ := openT(t, path)
		if err := s.Append(good); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(e); err == nil {
			t.Errorf("case %d: Append accepted %+v", i, e)
		}
		s.Close()

		payload := encodePayload(e)
		if _, err := decodePayload(payload); err == nil {
			t.Errorf("case %d: the text decoder accepted %q", i, payload)
		}
		var rec record
		if err := decodeRecord(payload, &rec); err == nil {
			t.Errorf("case %d: decodeRecord accepted %q", i, payload)
		}

		// Recovery keeps the good record and truncates the bad one.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		bad := frame(e)
		if _, err := f.Write(bad); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s2, info := openT(t, path)
		if info.Records != 1 || info.TornBytes != int64(len(bad)) {
			t.Errorf("case %d: recovery = %+v, want 1 record and %d torn bytes", i, info, len(bad))
		}
		if _, ok := s2.Get(e.Sig, e.Items); ok {
			t.Errorf("case %d: recovery indexed %+v", i, e)
		}
		s2.Close()
	}
}

func TestStoreAppendValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	defer s.Close()
	cases := []Entry{
		{Sig: "", Items: 1, Dist: []int{1}},
		{Sig: "a b", Items: 1, Dist: []int{1}},
		{Sig: "a\nb", Items: 1, Dist: []int{1}},
		{Sig: "ok", Items: 1, Dist: nil},
		{Sig: "ok", Items: 1, Dist: []int{2}},
		{Sig: "ok", Items: -1, Dist: []int{-1}},
		{Sig: "ok", Items: 1, Dist: []int{1}, Makespan: math.NaN()},
		{Sig: "ok", Items: 1, Dist: []int{1}, Makespan: math.Inf(1)},
	}
	for i, e := range cases {
		if err := s.Append(e); err == nil {
			t.Errorf("case %d (%+v): invalid entry accepted", i, e)
		}
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.wal")
	s, _ := openT(t, path)
	const k = 7
	for i := 0; i < k; i++ {
		if err := s.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// The store must remain appendable after the rename swap.
	if err := s.Append(testEntry(k)); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	s.Close()

	s2, info := openT(t, path)
	if info.Records != k+1 || info.TornBytes != 0 {
		t.Fatalf("recovery after compact = %+v, want %d clean records", info, k+1)
	}
	s2.Close()

	// Compacting twice yields byte-identical files: entries are written
	// in sorted key order, independent of append or map order.
	s3, _ := openT(t, path)
	if err := s3.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Compact(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if !bytes.Equal(first, second) {
		t.Fatal("repeated compaction is not deterministic")
	}
	if !bytes.HasPrefix(first, []byte(header)) {
		t.Fatal("compacted file lost its header")
	}
	if got, want := strings.Count(string(first), "\nsig "), k+1; got != want {
		t.Fatalf("compacted file holds %d records, want %d", got, want)
	}
}

func TestStoreClosedOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.wal")
	s, _ := openT(t, path)
	s.Close()
	if err := s.Append(testEntry(0)); err == nil {
		t.Fatal("append after close must fail")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compact after close must fail")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// orderEntries are the entries the compaction-order tests write: two
// item counts under one signature whose decimal order is not their
// string order (9 and 10), a signature that is a prefix of another,
// and signatures holding '#', whose keys sig#items interleave with
// another signature's.
func orderEntries() []Entry {
	const base = "lin(0x1.ap-8)|aff(0x1p-4,0x1.8p-2)"
	return []Entry{
		{Sig: base, Items: 10, Makespan: 0x1.4p+03, Dist: []int{3, 3, 4}},
		{Sig: base, Items: 9, Makespan: 0x1.2p+03, Dist: []int{3, 3, 3}},
		{Sig: base + "|lin(0x1p-3)", Items: 9, Makespan: 403.97522960000003, Dist: []int{2, 0, 7}},
		{Sig: base + "|lin(0x1p-3)", Items: 100, Makespan: 0, Dist: []int{50, 50}},
		{Sig: "p#9", Items: 1, Makespan: 1.5, Dist: []int{1}},
		{Sig: "p", Items: 9, Makespan: 2.5, Dist: []int{9}},
		{Sig: "p", Items: 10, Makespan: math.Nextafter(3, 4), Dist: []int{4, 6}},
		{Sig: "p#", Items: 0, Makespan: 0.125, Dist: []int{0, 0}},
	}
}

// TestStoreCompactOrder: Compact writes the live entries as frames in
// the bytewise order of the strings sig#items, whatever the append
// order, so its output is byte-identical to those frames concatenated.
func TestStoreCompactOrder(t *testing.T) {
	entries := orderEntries()
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(a, b Entry) int {
		return strings.Compare(fmt.Sprintf("%s#%d", a.Sig, a.Items), fmt.Sprintf("%s#%d", b.Sig, b.Items))
	})
	want := []byte(header)
	for _, e := range sorted {
		want = append(want, frame(e)...)
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1, 0}, {5, 0, 7, 2, 4, 1, 6, 3}} {
		path := filepath.Join(t.TempDir(), "plans.wal")
		s, _ := openT(t, path)
		for _, i := range order {
			if err := s.Append(entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("append order %v: compacted file\n%s\nwant\n%s", order, got, want)
		}
	}
}

// TestStoreRecoversParentWAL recovers testdata/parent.wal, which the
// text-decoding store wrote from orderEntries (appended, then
// compacted): every entry must come back bit-identical, and compacting
// the recovered store must reproduce the file byte for byte.
func TestStoreRecoversParentWAL(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plans.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	s, info := openT(t, path)
	defer s.Close()
	entries := orderEntries()
	if info.Records != len(entries) || info.Entries != len(entries) || info.TornBytes != 0 || info.Reset {
		t.Fatalf("recovery = %+v, want %d clean records", info, len(entries))
	}
	for _, want := range entries {
		if got, ok := s.Get(want.Sig, want.Items); !ok || !equalEntry(got, want) {
			t.Fatalf("recovered %+v (found %v), want %+v", got, ok, want)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("compacting the recovered store wrote\n%s\nwant\n%s", got, golden)
	}
}

// TestStoreHeapPerEntry recovers a WAL of the serve benchmarks' shape
// — 20 platforms of 8 processors, 1,000 item counts each, signatures
// of ~414 bytes — and bounds the heap the open store retains per
// entry. Each signature is held once, over one byte arena of its
// entries, so an entry costs its offset's map slot and its ~25 encoded
// bytes: ~66 B, where a map slot holding a plan with its own []int of
// shares cost ~163 B. The superseded case writes every key twice, the
// first record with one share holding all the items: recovery leaves
// the first record's bytes dead in the arena, and after Compact a
// reopened store must be back within the bound.
func TestStoreHeapPerEntry(t *testing.T) {
	const sigs, counts, p, bound = 20, 1000, 8, 96
	for _, superseded := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "plans.wal")
		if err := os.WriteFile(path, heapWAL(sigs, counts, p, superseded), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		open := func() (*Store, RecoveryInfo) {
			runtime.GC()
			runtime.ReadMemStats(&before)
			return openT(t, path)
		}
		perEntry := func() float64 {
			runtime.GC()
			runtime.ReadMemStats(&after)
			return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sigs*counts)
		}
		s, info := open()
		if info.Entries != sigs*counts {
			t.Fatalf("superseded=%v: recovered %d entries, want %d", superseded, info.Entries, sigs*counts)
		}
		stage := "open store"
		if superseded {
			if info.Records != 2*sigs*counts {
				t.Fatalf("recovered %d records, want %d", info.Records, 2*sigs*counts)
			}
			t.Logf("open store with superseded records retains %.0f B per entry", perEntry())
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if s, info = open(); info.Records != sigs*counts {
				t.Fatalf("reopened after Compact: %d records, want %d", info.Records, sigs*counts)
			}
			stage = "store reopened after Compact"
		}
		got := perEntry()
		t.Logf("%s retains %.0f B per entry", stage, got)
		if got > bound {
			t.Errorf("%s retains %.0f B per entry, want <= %d", stage, got, bound)
		}
		for _, items := range []int{p, p * counts} {
			want := make([]int, p)
			for j := range want {
				want[j] = items / p
			}
			if e, ok := s.Get(heapSig(sigs-1, p), items); !ok || !slices.Equal(e.Dist, want) {
				t.Errorf("%s: Get(%d) = %v, %v; want %v", stage, items, e.Dist, ok, want)
			}
		}
		s.Close()
	}
}

// heapSig is TestStoreHeapPerEntry's signature for platform g: 414
// bytes of fingerprints.
func heapSig(g, p int) string {
	var sb strings.Builder
	for sb.Len() < 414 {
		fmt.Fprintf(&sb, "lin(0x1.%04xp-10)|aff(0x1.%03xp-4,0x1p-%d);", 0x1000+g*p+sb.Len(), g, sb.Len()%17)
	}
	return sb.String()[:414]
}

// heapWAL writes TestStoreHeapPerEntry's log: for each of sigs
// signatures, item counts p·i for i in [1, counts], each split evenly
// over p shares. With superseded, each such record follows one for
// the same key with all the items on the first share.
func heapWAL(sigs, counts, p int, superseded bool) []byte {
	data := []byte(header)
	for g := 0; g < sigs; g++ {
		sig := heapSig(g, p)
		for i := 1; i <= counts; i++ {
			if superseded {
				first := make([]int, p)
				first[0] = p * i
				data = append(data, frame(Entry{Sig: sig, Items: p * i, Makespan: float64(i), Dist: first})...)
			}
			dist := make([]int, p)
			for j := range dist {
				dist[j] = i
			}
			data = append(data, frame(Entry{Sig: sig, Items: p * i, Makespan: float64(i) / 3, Dist: dist})...)
		}
	}
	return data
}

// TestStoreAppendAfterTornWrite: a write that fails part way (a short
// write on a full disk) leaves half a frame past the committed end and
// moves the file's offset past it. The next append must still be
// written at the committed end, or recovery stops at the half frame
// and truncates the acknowledged record away. The garbage is written
// at the file's end through the store's own file handle, as the failed
// write would be, which leaves the handle's offset past it (a handle of
// its own would have its own offset, which no append reads). Both
// a half frame shorter than the next frame and one longer than it are
// tried; a longer one leaves a tail past the new frame, which
// recovery truncates.
func TestStoreAppendAfterTornWrite(t *testing.T) {
	long := testEntry(2)
	long.Sig = strings.Repeat("x", 400)
	for _, garbage := range [][]byte{frame(testEntry(1))[:85], frame(long)[:300]} {
		path := filepath.Join(t.TempDir(), "plans.wal")
		s, _ := openT(t, path)
		if err := s.Append(testEntry(0)); err != nil {
			t.Fatal(err)
		}
		committed, err := s.Size()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
			t.Fatal(err)
		}
		if _, err := s.f.Write(garbage); err != nil {
			t.Fatal(err)
		}
		next := testEntry(5)
		if err := s.Append(next); err != nil {
			t.Fatalf("append after a torn write: %v", err)
		}
		size, err := s.Size()
		if err != nil {
			t.Fatal(err)
		}
		s.Close()

		s2, info := openT(t, path)
		if info.Records != 2 || info.Entries != 2 {
			t.Fatalf("%d bytes of garbage: recovery = %+v, want 2 records", len(garbage), info)
		}
		for _, want := range []Entry{testEntry(0), next} {
			if got, ok := s2.Get(want.Sig, want.Items); !ok || !equalEntry(got, want) {
				t.Fatalf("%d bytes of garbage: acknowledged %s#%d lost: got %+v, %v", len(garbage), want.Sig, want.Items, got, ok)
			}
		}
		s2.Close()
		if want := committed + int64(len(frame(next))); size != want {
			t.Fatalf("%d bytes of garbage: Size after the append = %d, want the committed %d", len(garbage), size, want)
		}
	}
}
