package core

import (
	"math"
	"slices"
	"testing"
)

// choiceRowFrom builds an int32 row from a start and one byte per
// further cell. A byte's top two bits pick its step's range: 0 and 1
// give steps in {0, +1}, 2 steps in [-2, +1], 3 an arbitrary step of
// up to ±2^31 (scaled from the byte, wrapping as int32 arithmetic
// does), so rows mix every block kind and may jump anywhere.
func choiceRowFrom(start int32, steps []byte) []int32 {
	if len(steps) == 0 && start < 0 {
		return nil // the zero-length row
	}
	row := []int32{start}
	for _, b := range steps {
		v := row[len(row)-1]
		switch b >> 6 {
		case 0, 1:
			v += int32(b & 1)
		case 2:
			v += int32(b&3) - 2
		default:
			v += int32(int8(b<<2)) * (1 << 24)
		}
		row = append(row, v)
	}
	return row
}

// packChoices publishes every block of c, from the last to the first,
// to a new row answering cells [0, len(c)-1].
func packChoices(c []int32) *choiceRow {
	r := newChoiceRow(len(c) - 1)
	for b := (len(c) - 1) / choiceBlock; b >= 0 && len(c) > 0; b-- {
		lo, hi := r.blockCells(b)
		r.publish(b, c[lo:hi+1])
	}
	return r
}

// blockWords returns block b's header and words — its page word, and
// its pair word or its offset words when its kind keeps them — or nil
// when the block is not published.
func blockWords(r *choiceRow, b int) []uint64 {
	h, pg, ok := r.block(b)
	if !ok {
		return nil
	}
	k := b % pageBlocks
	out := []uint64{h, pg.word[k].Load()}
	switch h >> 62 {
	case stepPair:
		out = append(out, r.pairs[b/pageBlocks].Load().word[k].Load())
	case offsetInt16, offsetInt32:
		out = append(out, *r.offs[b/pageBlocks].Load().blk[k].Load()...)
	}
	return out
}

// rowWords returns the words of every block of r, in order.
func rowWords(r *choiceRow) [][]uint64 {
	var out [][]uint64
	for b := 0; b*choiceBlock <= r.n; b++ {
		out = append(out, blockWords(r, b))
	}
	return out
}

// FuzzChoicePacking packs arbitrary int32 rows and reads every cell
// back, by random access and by the sequential block decoder, which
// must both return the raw row: the packing is lossless for any steps,
// any width and any values. Blocks are published in any order, as a
// plan's faults and the row pool's workers publish them: publishing
// the row's blocks from the first to the last, each twice, must pack
// it exactly as from the last to the first, and a block must read as
// unfilled until it is published.
func FuzzChoicePacking(f *testing.F) {
	ones := make([]byte, 63)
	f.Add(int32(-1), []byte{})                // length 0
	f.Add(int32(7), []byte{})                 // length 1
	f.Add(int32(0), ones)                     // one full block of {0, +1}
	f.Add(int32(100), append(ones, 0x81, 1))  // a second block with a -1 step
	f.Add(int32(5), []byte{0x80, 0x80, 0x80}) // -2 steps below zero
	f.Add(int32(math.MaxInt32-1), []byte{1, 1, 1, 0xc1})
	f.Add(int32(math.MinInt32), []byte{0xff, 0xc0, 0x40, 0x83, 0xfe})
	f.Fuzz(func(t *testing.T, start int32, steps []byte) {
		row := choiceRowFrom(start, steps)
		if len(row) == 0 {
			return
		}
		r := packChoices(row)
		if r.n != len(row)-1 {
			t.Fatalf("packed width %d, want %d", r.n, len(row)-1)
		}
		fwd := newChoiceRow(len(row) - 1)
		for b := 0; b*choiceBlock < len(row); b++ {
			if _, ok := fwd.at(b * choiceBlock); ok {
				t.Fatalf("block %d reads as filled before it is published", b)
			}
			lo, hi := fwd.blockCells(b)
			fwd.publish(b, row[lo:hi+1])
			fwd.publish(b, row[lo:hi+1])
		}
		if !slices.EqualFunc(rowWords(fwd), rowWords(r), slices.Equal[[]uint64]) {
			t.Fatalf("publishing in order packs differently (row %v)", row)
		}
		for d, want := range row {
			if got, ok := r.at(d); !ok || got != want {
				t.Fatalf("at(%d) = %d, %v, want %d (row %v)", d, got, ok, want, row)
			}
		}
		// Decode every block whole, and every block's first cells up to
		// one short of its end, as a rebuild reading part of it does.
		for b := 0; b*choiceBlock < len(row); b++ {
			want := row[b*choiceBlock : min((b+1)*choiceBlock, len(row))]
			for _, w := range []int{len(want), len(want) - 1} {
				got := make([]int32, w)
				r.decodeBlock(b, got)
				if !slices.Equal(got, want[:w]) {
					t.Fatalf("decodeBlock(%d) of %d cells = %v, want %v (row %v)", b, w, got, want[:w], row)
				}
			}
		}
	})
}
