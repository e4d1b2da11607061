// Package store implements the daemon's durable plan store: an
// append-only, CRC-framed write-ahead log of solved distributions
// keyed by the canonical platform signature (core.PlatformSignature)
// and item count, so a restarted scatterd answers every previously
// solved request without re-running a multi-second DP.
//
// The on-disk format follows the text-codec discipline of the fault
// package's "ledger v1" (DESIGN.md §9): human-readable lines, a
// version header, strict replay validation. On top of that it adds
// crash-safety framing, because a daemon — unlike the in-memory
// ledger — dies mid-write:
//
//	planwal v1\n
//	plan <payloadLen> <crc32c-hex>\n
//	sig <signature>\n
//	items <n>\n
//	makespan <hex-float>\n
//	dist <d0> <d1> ... <dp-1>\n
//	... next frame ...
//
// Each record frame is a header line carrying the payload's byte
// length and CRC-32C, followed by exactly payloadLen payload bytes.
// Recovery replays frames from the top and stops at the first frame
// that is short, fails its CRC, or fails semantic validation (the
// distribution must sum to the item count); everything from that
// offset on is a torn tail and is truncated away, so a crash mid-
// append (or tail corruption) costs at most the records at and after
// the damage — every earlier committed plan survives. Makespans are
// encoded as hex floats so recovered results are bit-identical to the
// solves that produced them. Compaction rewrites the live entries, in
// the bytewise order of the strings sig#items, to a temporary file and
// renames it into place, so it is atomic: a crash during compaction
// leaves either the old or the new WAL, never a mix.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// header is the WAL version line.
const header = "planwal v1\n"

// maxPayload bounds a frame's declared payload length, so a corrupt
// header cannot make recovery allocate gigabytes.
const maxPayload = 1 << 26

// castagnoli is the CRC-32C table used for frame checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one persisted plan: the distribution an engine solve
// produced for (Sig, Items).
type Entry struct {
	// Sig is the canonical platform signature (core.PlatformSignature).
	Sig string
	// Items is the solved item count; the distribution sums to it.
	Items int
	// Makespan is the predicted makespan of the distribution.
	Makespan float64
	// Dist is the per-processor item distribution, root last.
	Dist []int
}

// validate rejects entries the codec cannot round-trip exactly.
func (e Entry) validate() error {
	if !validSig(e.Sig) {
		return fmt.Errorf("store: unusable signature %q", e.Sig)
	}
	if err := checkPlan(e.Items, e.Makespan, e.Dist); err != nil {
		return fmt.Errorf("store: entry for %q %w", e.Sig, err)
	}
	return nil
}

// validSig reports whether a signature fits on the WAL's sig line and
// in the index: non-empty, with no space, tab, CR or newline.
func validSig(sig string) bool {
	return sig != "" && !strings.ContainsAny(sig, " \t\n\r")
}

// checkPlan holds everything but the signature to what the codec
// round-trips: a non-empty distribution of non-negative shares summing
// to a non-negative items, and a finite, non-negative makespan. A share
// larger than what is left of items is refused before it is added, so
// the running sum stays in [0, items] and cannot wrap.
func checkPlan(items int, makespan float64, dist []int) error {
	if len(dist) == 0 {
		return errors.New("has an empty distribution")
	}
	if math.IsNaN(makespan) || math.IsInf(makespan, 0) || makespan < 0 {
		return fmt.Errorf("has makespan %v", makespan)
	}
	if items < 0 {
		return fmt.Errorf("has item count %d", items)
	}
	sum := 0
	for _, d := range dist {
		if d < 0 {
			return fmt.Errorf("has negative share %d", d)
		}
		if d > items-sum {
			return fmt.Errorf("has shares beyond %d items", items)
		}
		sum += d
	}
	if sum != items {
		return fmt.Errorf("sums to %d, want %d items", sum, items)
	}
	return nil
}

// RecoveryInfo reports what Open found in the WAL.
type RecoveryInfo struct {
	// Records is the number of committed records replayed.
	Records int
	// Entries is the number of live (sig, items) entries after replay;
	// lower than Records when the log contains superseded duplicates.
	Entries int
	// TornBytes is the length of the torn or corrupt tail that was
	// truncated away (0 for a clean log).
	TornBytes int64
	// Reset reports that the version header itself was unusable and
	// the store restarted empty.
	Reset bool
}

// Store is the durable plan store. All methods are safe for concurrent
// use. The WAL assumes a single writing process; running two daemons
// against one file corrupts neither's memory but interleaves frames
// unpredictably.
//
// The in-memory index is keyed by signature first: plans holds each
// signature once, as a key, over that signature's entries. A signature
// joins the fingerprints of all of a platform's processors (~414 bytes
// at p = 8), and the daemon stores many item counts per platform, so
// an entry costs its offset's map slot and its bytes in the
// signature's arena (see sigPlans), not another copy of its signature.
//
// Every frame is written at end, the offset just past the last
// committed record, not at the file's own offset: bytes a failed write
// left past end are overwritten by the next append and truncated by
// recovery, never trusted.
type Store struct {
	mu      sync.Mutex
	path    string               //scatterlint:guardedby immutable
	f       *os.File             //scatterlint:guardedby mu
	end     int64                //scatterlint:guardedby mu
	plans   map[string]*sigPlans //scatterlint:guardedby mu
	live    int                  //scatterlint:guardedby mu
	records int                  //scatterlint:guardedby mu
}

// sigPlans holds one signature's entries in one byte arena; at maps an
// item count to the offset of its entry there. An entry is its
// makespan's 8 little-endian bits, its share count as a uvarint and
// its shares as uvarints. A record that supersedes another in the WAL
// is appended and leaves the old bytes dead until the next Open.
type sigPlans struct {
	at    map[int]int
	arena []byte
}

// appendPlan appends the arena encoding of a plan to b.
func appendPlan(b []byte, makespan float64, dist []int) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(makespan))
	b = binary.AppendUvarint(b, uint64(len(dist)))
	for _, d := range dist {
		b = binary.AppendUvarint(b, uint64(d))
	}
	return b
}

// plan decodes the entry at off: its makespan and a new slice of its
// shares.
func (p *sigPlans) plan(off int) (float64, []int) {
	b := p.arena[off:]
	makespan := math.Float64frombits(binary.LittleEndian.Uint64(b))
	n, k := binary.Uvarint(b[8:])
	b = b[8+k:]
	dist := make([]int, n)
	for i := range dist {
		d, k := binary.Uvarint(b)
		dist[i] = int(d)
		b = b[k:]
	}
	return makespan, dist
}

// put encodes a plan for items at the arena's end and reports whether
// it replaced one, whose bytes are left dead.
func (p *sigPlans) put(items int, makespan float64, dist []int) (replaced bool) {
	_, replaced = p.at[items]
	p.at[items] = len(p.arena)
	p.arena = appendPlan(p.arena, makespan, dist)
	return replaced
}

// Open reads (or creates) the WAL at path, replays every committed
// record, truncates any torn or corrupt tail, and returns the store
// ready for appends. Corrupt content is never an error — recovery
// keeps the longest valid prefix — only real I/O failures are.
func Open(path string) (*Store, RecoveryInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := &Store{path: path, f: f, plans: make(map[string]*sigPlans)}
	info, err := s.recover()
	if err != nil {
		f.Close()
		return nil, RecoveryInfo{}, err
	}
	return s, info, nil
}

// recover replays the WAL and truncates the torn tail. Called once
// from Open, before the store is shared. It parses from bytes: each
// frame header in the reader's buffer, each payload into one reused
// buffer.
func (s *Store) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return info, fmt.Errorf("store: seek %s: %w", s.path, err)
	}
	r := bufio.NewReader(s.f)

	size, err := s.f.Stat()
	if err != nil {
		return info, fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	total := size.Size()

	hdr, err := r.ReadSlice('\n')
	switch {
	case err == io.EOF && len(hdr) == 0:
		// Fresh file: write the header.
		if werr := s.rewrite(nil); werr != nil {
			return info, werr
		}
		return info, nil
	case err == nil && string(hdr) == header:
		// Valid header; replay records below.
	default:
		// Unreadable or wrong header: nothing before it can be
		// trusted, restart the store empty.
		info.Reset = true
		info.TornBytes = total
		if werr := s.rewrite(nil); werr != nil {
			return info, werr
		}
		return info, nil
	}

	good := int64(len(header)) // offset of the first byte after the last valid record
	off := good
	var payload []byte
	var rec record
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			break
		}
		off += int64(len(line))
		plen, crc, ok := parseFrameHeader(line)
		if !ok {
			break
		}
		payload = slices.Grow(payload[:0], plen)[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		off += int64(plen)
		if crc32.Checksum(payload, castagnoli) != crc || !s.replay(payload, &rec) {
			break
		}
		s.records++
		good = off
	}
	info.Records = s.records
	info.Entries = s.live
	if good < total {
		info.TornBytes = total - good
		if err := s.f.Truncate(good); err != nil {
			return info, fmt.Errorf("store: truncate torn tail of %s: %w", s.path, err)
		}
		if err := s.f.Sync(); err != nil {
			return info, fmt.Errorf("store: sync %s: %w", s.path, err)
		}
	}
	s.end = good
	return info, nil
}

// parseFrameHeader parses a frame header line as frame writes it,
// "plan <len> <crc32c as 8 hex digits>\n", and reports whether it is
// one with a payload length in (0, maxPayload].
func parseFrameHeader(line []byte) (plen int, crc uint32, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte("plan "))
	if !ok {
		return 0, 0, false
	}
	lenStr, crcStr, ok := bytes.Cut(rest, []byte(" "))
	if !ok || len(crcStr) != 9 || crcStr[8] != '\n' {
		return 0, 0, false
	}
	n, err := strconv.ParseUint(string(lenStr), 10, 32)
	if err != nil || n == 0 || n > maxPayload {
		return 0, 0, false
	}
	c, err := strconv.ParseUint(string(crcStr[:8]), 16, 32)
	if err != nil {
		return 0, 0, false
	}
	return int(n), uint32(c), true
}

// replay decodes one record payload into the index and reports whether
// it was a valid record. A signature already indexed is looked up from
// the payload's bytes and its key kept; a new one is copied out and
// checked (validSig) once, as it enters the index. The plan is encoded
// straight into the signature's arena.
func (s *Store) replay(payload []byte, rec *record) bool {
	if decodeRecord(payload, rec) != nil {
		return false
	}
	p, ok := s.plans[string(rec.sig)]
	if !ok {
		sig := string(rec.sig)
		if !validSig(sig) {
			return false
		}
		p = &sigPlans{at: make(map[int]int)}
		s.plans[sig] = p
	}
	if !p.put(rec.items, rec.makespan, rec.dist) {
		s.live++
	}
	return true
}

// encodePayload renders an entry in the documented text form.
func encodePayload(e Entry) []byte {
	var sb strings.Builder
	sb.WriteString("sig ")
	sb.WriteString(e.Sig)
	sb.WriteString("\nitems ")
	sb.WriteString(strconv.Itoa(e.Items))
	sb.WriteString("\nmakespan ")
	sb.WriteString(strconv.FormatFloat(e.Makespan, 'x', -1, 64))
	sb.WriteString("\ndist")
	for _, d := range e.Dist {
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(d))
	}
	sb.WriteByte('\n')
	return []byte(sb.String())
}

// record is one decoded payload: sig aliases the payload, and dist's
// storage is reused from one record to the next.
type record struct {
	sig      []byte
	items    int
	makespan float64
	dist     []int
}

// decodeRecord parses a payload in the text form encodePayload writes
// into rec. It takes what strings.Split, strings.Fields, strconv.Atoi
// and strconv.ParseFloat take over the text: exactly four lines, the
// last newline optional; each line behind its prefix ("dist" without a
// space); the shares split at Unicode white space; and it applies
// checkPlan. The signature's characters are left to the caller, which
// checks each signature once.
func decodeRecord(payload []byte, rec *record) error {
	p := bytes.TrimSuffix(payload, []byte("\n"))
	var line [4][]byte
	for i := range 3 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			return fmt.Errorf("store: payload has %d lines, want 4", i+1)
		}
		line[i], p = p[:nl], p[nl+1:]
	}
	if bytes.IndexByte(p, '\n') >= 0 {
		return errors.New("store: payload has more than 4 lines")
	}
	line[3] = p
	sig, ok := bytes.CutPrefix(line[0], []byte("sig "))
	if !ok {
		return fmt.Errorf("store: bad sig line %q", line[0])
	}
	itemsStr, ok := bytes.CutPrefix(line[1], []byte("items "))
	if !ok {
		return fmt.Errorf("store: bad items line %q", line[1])
	}
	items, err := strconv.Atoi(string(itemsStr))
	if err != nil {
		return fmt.Errorf("store: bad item count %q: %w", itemsStr, err)
	}
	msStr, ok := bytes.CutPrefix(line[2], []byte("makespan "))
	if !ok {
		return fmt.Errorf("store: bad makespan line %q", line[2])
	}
	ms, err := strconv.ParseFloat(string(msStr), 64)
	if err != nil {
		return fmt.Errorf("store: bad makespan %q: %w", msStr, err)
	}
	shares, ok := bytes.CutPrefix(line[3], []byte("dist"))
	if !ok {
		return fmt.Errorf("store: bad dist line %q", line[3])
	}
	dist := rec.dist[:0]
	field := -1 // start of the share being read, -1 between shares
	for i := 0; i <= len(shares); {
		width, space := 1, true // the line's end ends a share
		if i < len(shares) {
			width, space = runeAt(shares, i)
		}
		switch {
		case space && field >= 0:
			d, err := strconv.Atoi(string(shares[field:i]))
			if err != nil {
				return fmt.Errorf("store: bad dist share %q: %w", shares[field:i], err)
			}
			dist = append(dist, d)
			field = -1
		case !space && field < 0:
			field = i
		}
		i += width
	}
	rec.dist = dist
	if err := checkPlan(items, ms, dist); err != nil {
		return fmt.Errorf("store: entry %w", err)
	}
	rec.sig, rec.items, rec.makespan = sig, items, ms
	return nil
}

// runeAt returns the width of the rune starting at b[i] and whether it
// is white space as strings.Fields counts it: unicode.IsSpace, with an
// invalid UTF-8 byte a one-byte rune that is not.
func runeAt(b []byte, i int) (width int, space bool) {
	if c := b[i]; c < utf8.RuneSelf {
		return 1, unicode.IsSpace(rune(c))
	}
	r, width := utf8.DecodeRune(b[i:])
	return width, unicode.IsSpace(r)
}

// frame renders the full record frame (header line + payload) for an
// entry.
func frame(e Entry) []byte {
	payload := encodePayload(e)
	hdr := fmt.Sprintf("plan %d %08x\n", len(payload), crc32.Checksum(payload, castagnoli))
	return append([]byte(hdr), payload...)
}

// Append durably records an entry: one frame written at the committed
// end, followed by an fsync, so an acknowledged append survives a
// crash. Re-appending an entry identical to the live one for its key
// is a no-op; a different distribution for an existing key is an
// error — solves are deterministic, so a conflicting result means a
// corrupted caller.
func (s *Store) Append(e Entry) error {
	if err := e.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	p := s.plans[e.Sig]
	if p != nil {
		if off, ok := p.at[e.Items]; ok {
			makespan, dist := p.plan(off)
			if makespan == e.Makespan && slices.Equal(dist, e.Dist) {
				return nil
			}
			return fmt.Errorf("store: conflicting result for %s#%d: have %v, got %v", e.Sig, e.Items, dist, e.Dist)
		}
	}
	fr := frame(e)
	if _, err := s.f.WriteAt(fr, s.end); err != nil {
		return fmt.Errorf("store: append to %s: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", s.path, err)
	}
	s.end += int64(len(fr))
	if p == nil {
		// The caller's string may be part of something larger; the
		// index keeps a copy of its own.
		p = &sigPlans{at: make(map[int]int)}
		s.plans[strings.Clone(e.Sig)] = p
	}
	p.put(e.Items, e.Makespan, e.Dist)
	s.live++
	s.records++
	return nil
}

// Get returns the persisted entry for (sig, items). The returned
// distribution is decoded afresh; callers may keep it.
func (s *Store) Get(sig string, items int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.plans[sig]
	if p == nil {
		return Entry{}, false
	}
	off, ok := p.at[items]
	if !ok {
		return Entry{}, false
	}
	makespan, dist := p.plan(off)
	return Entry{Sig: sig, Items: items, Makespan: makespan, Dist: dist}, true
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Records returns the number of records in the log, live plus
// superseded; a gap between Records and Len means Compact would
// shrink the file.
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Path returns the WAL file path.
func (s *Store) Path() string { return s.path }

// Size returns the WAL's committed byte size: the header and every
// committed record.
func (s *Store) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, fmt.Errorf("store: %s is closed", s.path)
	}
	return s.end, nil
}

// Compact atomically rewrites the WAL to exactly the live entries, in
// the bytewise order of the strings sig#items, so the rewritten file is
// deterministic. A crash during compaction leaves either the old file
// or the new one, never a mix: the new log is fully written and
// fsynced under a temporary name first, then renamed over the old one.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	type keyed struct {
		e   Entry
		num string // "#" and the item count: e.Sig+num is the sort key
	}
	all := make([]keyed, 0, s.live)
	for sig, p := range s.plans {
		for items, off := range p.at {
			makespan, dist := p.plan(off)
			all = append(all, keyed{Entry{Sig: sig, Items: items, Makespan: makespan, Dist: dist}, "#" + strconv.Itoa(items)})
		}
	}
	slices.SortFunc(all, func(a, b keyed) int { return cmpJoined(a.e.Sig, a.num, b.e.Sig, b.num) })
	entries := make([]Entry, len(all))
	for i, k := range all {
		entries[i] = k.e
	}
	if err := s.rewrite(entries); err != nil {
		return err
	}
	s.records = len(entries)
	return nil
}

// cmpJoined compares the strings a0+a1 and b0+b1 without building them.
func cmpJoined(a0, a1, b0, b1 string) int {
	for {
		if a0 == "" {
			a0, a1 = a1, ""
		}
		if b0 == "" {
			b0, b1 = b1, ""
		}
		n := min(len(a0), len(b0))
		if n == 0 {
			return cmp.Compare(len(a0), len(b0))
		}
		if c := strings.Compare(a0[:n], b0[:n]); c != 0 {
			return c
		}
		a0, b0 = a0[n:], b0[n:]
	}
}

// rewrite replaces the WAL file with header + the given frames, via
// temp file, fsync, and rename, and moves the committed end to the new
// file's size. Callers hold s.mu (or own the store exclusively, during
// Open).
func (s *Store) rewrite(entries []Entry) error {
	dir, base := filepath.Split(s.path)
	tmp, err := os.CreateTemp(dir, base+".compact-*")
	if err != nil {
		return fmt.Errorf("store: compact temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	w.WriteString(header)
	for _, e := range entries {
		w.Write(frame(e))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("store: compact rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen %s: %w", s.path, err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: seek %s: %w", s.path, err)
	}
	s.f, s.end = f, end
	if old != nil {
		old.Close()
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// Close releases the WAL file. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("store: close %s: %w", s.path, err)
	}
	return nil
}
