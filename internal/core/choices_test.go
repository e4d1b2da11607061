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

// FuzzChoicePacking packs arbitrary int32 rows and reads every cell
// back, by random access and by the sequential block decoder, which
// must both return the raw row: the packing is lossless for any steps, any
// width and any values. Encoding the row in two chunks, in reverse
// order, as the row pool's workers may, must pack it identically.
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
		r := packChoices(row)
		if r.n != len(row)-1 {
			t.Fatalf("packed width %d, want %d", r.n, len(row)-1)
		}
		var pk choicePacker
		pk.reset(row)
		mid := len(row) / 2 &^ (choiceBlock - 1)
		pk.encode(mid, len(row)-1)
		pk.encode(0, mid-1)
		if split := pk.finish(); !slices.Equal(split.head, r.head) || !slices.Equal(split.data, r.data) {
			t.Fatalf("chunked packing differs (row %v)", row)
		}
		for d, want := range row {
			if got := r.at(d); got != want {
				t.Fatalf("at(%d) = %d, want %d (row %v)", d, got, want, row)
			}
		}
		// Decode every block whole, and every block's first cells up to
		// one short of its end, as a rebuild chunk ending there does.
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
