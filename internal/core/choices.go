package core

import "math/bits"

// This file packs a DP row's choices losslessly. Neighbouring cells of
// a row almost always choose equal shares or shares one apart, so a
// row is cut into blocks of choiceBlock cells, each holding the choice
// at its first cell and the steps between neighbouring cells after it.
// A block whose steps are all 0 or +1 keeps one bit per step; one whose
// steps lie in [-2, +1] keeps two; any other block keeps its choices
// raw. Random access stays O(1): a cell's choice is its block's first
// choice plus a population count of the block's steps up to it.

// choiceBlock is the number of cells in a packed block: one 64-bit
// word holds a block's one-bit steps.
const choiceBlock = 64

// The kinds of a packed block.
const (
	stepBit  = iota // steps in {0, +1}: bit k of one word is step k
	stepPair        // steps in [-2, +1]: step k + 2 in bits 2k%64, 2k%64+1 of word k/32
	stepRaw         // any other step: the choices as int32, two per word
)

// headOffset masks a block header's word offset (bits 32..61); the
// kind sits above it and the block's first choice below it.
const headOffset = 1<<30 - 1

// choiceRow is one DP row's choices choice[d], d in [0, n], packed in
// blocks of choiceBlock cells. head[b] holds block b's first choice in
// its low 32 bits, the offset of the block's words in data in bits
// 32..61 and its kind in the top two. A choiceRow is immutable once
// packed.
type choiceRow struct {
	n    int
	head []uint64
	data []uint64
}

// packChoices packs c; the row answers cells [0, len(c)-1].
func packChoices(c []int32) choiceRow {
	var pk choicePacker
	pk.reset(c)
	pk.encode(0, len(c)-1)
	return pk.finish()
}

// choicePacker packs one row's choices in two steps. encode classifies
// and encodes the blocks of a range of cells, independently of every
// other range, so the row pool's workers run it on their own chunks;
// finish then sizes the row's words exactly, so a packed row holds no
// spare capacity, and assembles them in O(blocks) plus its raw blocks.
// Steps are taken modulo 2^32, as int32 arithmetic wraps, so any row
// packs losslessly.
type choicePacker struct {
	c    []int32
	head []uint64 // per block: its first choice and kind, as in choiceRow
	enc  []uint64 // per block: two words of one- or two-bit steps
}

// reset starts packing the row c, reusing the scratch words.
func (pk *choicePacker) reset(c []int32) {
	blocks := (len(c) + choiceBlock - 1) / choiceBlock
	pk.c, pk.head = c, make([]uint64, blocks)
	if cap(pk.enc) < 2*blocks {
		pk.enc = make([]uint64, 2*blocks)
	}
	pk.enc = pk.enc[:2*blocks]
}

// encode classifies and encodes the blocks of cells [lo, hi]; lo is a
// multiple of choiceBlock, and hi+1 one too unless it ends the row.
func (pk *choicePacker) encode(lo, hi int) {
	for b := lo / choiceBlock; b*choiceBlock <= hi; b++ {
		blk := pk.c[b*choiceBlock : min((b+1)*choiceBlock, len(pk.c))]
		kind := uint64(stepRaw)
		if bit, w := bitSteps(blk); bit <= 1 {
			kind, pk.enc[2*b] = stepBit, w
		} else if pairSteps(blk, pk.enc[2*b:2*b+2]) {
			kind = stepPair
		}
		pk.head[b] = uint64(uint32(blk[0])) | kind<<62
	}
}

// finish assembles the packed row once every block is encoded.
func (pk *choicePacker) finish() choiceRow {
	r := choiceRow{n: len(pk.c) - 1, head: pk.head}
	words := 0
	for b, h := range r.head {
		switch h >> 62 {
		case stepBit:
			words++
		case stepPair:
			words += 2
		default:
			words += (min((b+1)*choiceBlock, len(pk.c)) - b*choiceBlock + 1) / 2
		}
	}
	r.data = make([]uint64, words)
	off := 0
	for b, h := range r.head {
		r.head[b] |= uint64(off) << 32
		switch h >> 62 {
		case stepBit:
			r.data[off] = pk.enc[2*b]
			off++
		case stepPair:
			r.data[off], r.data[off+1] = pk.enc[2*b], pk.enc[2*b+1]
			off += 2
		default:
			blk := pk.c[b*choiceBlock : min((b+1)*choiceBlock, len(pk.c))]
			for k, v := range blk {
				r.data[off+k/2] |= uint64(uint32(v)) << (32 * (k % 2))
			}
			off += (len(blk) + 1) / 2
		}
	}
	pk.c, pk.head = nil, nil
	return r
}

// bitSteps ORs together every step of blk into bit, so the steps are
// all in {0, +1} exactly when bit <= 1, and w then holds them one bit
// each. It stays out of line: inlined into encode, its loop variables
// spill to the stack, which makes packing about half again as slow.
//
//go:noinline
func bitSteps(blk []int32) (bit uint32, w uint64) {
	prev := blk[0]
	for k, v := range blk[1:] {
		s := uint32(v - prev)
		prev = v
		bit |= s
		w |= uint64(s) << ((k + 1) & 63)
	}
	return bit, w
}

// pairSteps encodes blk's steps two bits each into w, step k + 2 in
// field k (step 0 is 0), and reports whether they all lie in [-2, +1].
func pairSteps(blk []int32, w []uint64) bool {
	w[0], w[1] = 2, 0
	for k := 1; k < len(blk); k++ {
		u := uint32(blk[k] - blk[k-1] + 2)
		if u > 3 {
			return false
		}
		w[k/32] |= uint64(u) << (2 * (k % 32))
	}
	return true
}

// at returns choice[d] in O(1).
func (r *choiceRow) at(d int) int32 {
	h := r.head[d/choiceBlock]
	k := uint(d % choiceBlock)
	first, w := int32(uint32(h)), r.data[h>>32&headOffset:]
	switch h >> 62 {
	case stepBit:
		// Bit 0 holds step 0, which is 0: steps 1..k sit in bits 1..k.
		return first + int32(bits.OnesCount64(w[0]&(uint64(2)<<k-1)))
	case stepPair:
		// Each of the fields 0..k holds its step+2 (step 0 is 0), so
		// their sum less 2(k+1) is the sum of the steps.
		lo, hi := w[0], w[1]
		if k < 32 {
			lo, hi = lo&(uint64(4)<<(2*k)-1), 0
		} else {
			hi &= uint64(4)<<(2*(k-32)) - 1
		}
		return first + int32(fieldSum(lo)+fieldSum(hi)-2*int(k+1))
	default:
		return int32(uint32(w[k/2] >> (32 * (k % 2))))
	}
}

// fieldSum is the sum of the 2-bit fields of x.
func fieldSum(x uint64) int {
	return bits.OnesCount64(x) + bits.OnesCount64(x&0xaaaaaaaaaaaaaaaa)
}

// decodeBlock writes the choices of block b's first len(blk) cells to
// blk (at most choiceBlock), walking its steps in order: the
// sequential decoder a rebuild reads a row's choices through.
func (r *choiceRow) decodeBlock(b int, blk []int32) {
	h := r.head[b]
	w := r.data[h>>32&headOffset:]
	v := int32(uint32(h))
	switch h >> 62 {
	case stepBit:
		x := w[0]
		for k := range blk {
			v += int32(x & 1)
			x >>= 1
			blk[k] = v
		}
	case stepPair:
		x := w[0]
		for k := range blk {
			if k == 32 {
				x = w[1]
			}
			v += int32(x&3) - 2
			x >>= 2
			blk[k] = v
		}
	default:
		for k := range blk {
			blk[k] = int32(uint32(w[k/2] >> (32 * (k % 2))))
		}
	}
}
