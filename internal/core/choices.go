package core

import (
	"math/bits"
	"sync/atomic"
)

// This file packs a DP row's choices losslessly, one block at a time.
// Neighbouring cells of a row almost always choose equal shares or
// shares one apart, so a row is cut into blocks of choiceBlock cells,
// each holding the choice at its first cell and the steps between
// neighbouring cells after it. A block whose steps are all 0 or +1
// keeps one bit per step; one whose steps lie in [-2, +1] keeps two;
// any other block keeps each choice's offset from its first choice,
// in 16 bits when they all fit and in 32 otherwise. Random access
// stays O(1): a cell's choice is its block's first choice plus a
// population count of the block's steps up to it, or plus its offset.
//
// Blocks are filled independently and in any order — by the row
// pool's workers on their own chunks, or one at a time by a plan's
// demand (demand.go) — and each is published once, atomically: a
// reader sees a block whole or not at all, and racing publishers of a
// block store equal bits.

// choiceBlock is the number of cells in a packed block: one 64-bit
// word holds a block's one-bit steps.
const choiceBlock = 64

// pageBlocks is the number of blocks a page of a row holds. A row
// allocates a page on its first published block, so a plan that fills
// a thin cone of its rows pays for the pages the cone crosses.
const pageBlocks = 16

// The kinds of a packed block.
const (
	stepBit     = iota // steps in {0, +1}: bit k of the block's word is step k
	stepPair           // steps in [-2, +1]: step k + 2 in bits 2k%64, 2k%64+1 of word k/32
	offsetInt16        // offsets from the first choice in int16: offset k in bits 16k%64.. of word k/4
	offsetInt32        // any other block: offsets as int32, offset k in bits 32k%64.. of word k/2
)

// published marks a block's header once the block is filled; the
// header of a block not yet filled is 0.
const published = 1 << 32

// choiceRow is one DP row's choices choice[d], d in [0, n], packed in
// blocks of choiceBlock cells and stored in pages of pageBlocks
// blocks. A block's header holds its first choice in its low 32 bits,
// the published flag and its kind in the top two bits; a stepBit or
// stepPair block keeps its first word in the page, a stepPair block
// its second word in the row's pair page, and an offset block its
// words in the row's offset page. Every page is allocated on first use
// and every published block is immutable.
type choiceRow struct {
	n int
	// The page indexes are fixed when the row is made; their slots
	// are published atomically.
	pages []atomic.Pointer[choicePage] //scatterlint:guardedby immutable
	pairs []atomic.Pointer[pairPage]   //scatterlint:guardedby immutable
	offs  []atomic.Pointer[offsetPage] //scatterlint:guardedby immutable
}

// choicePage holds the headers and first words of pageBlocks blocks.
type choicePage struct {
	head [pageBlocks]atomic.Uint64
	word [pageBlocks]atomic.Uint64
}

// pairPage holds the second words of a page's stepPair blocks.
type pairPage struct {
	word [pageBlocks]atomic.Uint64
}

// offsetPage holds the words of a page's offset blocks.
type offsetPage struct {
	blk [pageBlocks]atomic.Pointer[[]uint64]
}

// newChoiceRow returns an empty row answering cells [0, n].
func newChoiceRow(n int) *choiceRow {
	pages := n/(pageBlocks*choiceBlock) + 1
	return &choiceRow{
		n:     n,
		pages: make([]atomic.Pointer[choicePage], pages),
		pairs: make([]atomic.Pointer[pairPage], pages),
		offs:  make([]atomic.Pointer[offsetPage], pages),
	}
}

// blockCells returns the first and last cell of block b.
func (r *choiceRow) blockCells(b int) (lo, hi int) {
	lo = b * choiceBlock
	return lo, min(lo+choiceBlock-1, r.n)
}

// loadOrNew returns page k of pages, allocating it if none is
// published yet; racing allocators keep the first page stored.
func loadOrNew[T any](pages []atomic.Pointer[T], k int) *T {
	if pg := pages[k].Load(); pg != nil {
		return pg
	}
	pages[k].CompareAndSwap(nil, new(T))
	return pages[k].Load()
}

// publish packs and publishes blk, the choices of block b's cells. A
// block already published is left as it is: its bits are the same.
func (r *choiceRow) publish(b int, blk []int32) {
	pg, k := loadOrNew(r.pages, b/pageBlocks), b%pageBlocks
	if pg.head[k].Load() != 0 {
		return
	}
	var kind uint64
	var w [2]uint64
	if bit, w0 := bitSteps(blk); bit <= 1 {
		kind, w[0] = stepBit, w0
	} else if pairSteps(blk, w[:]) {
		kind = stepPair
		loadOrNew(r.pairs, b/pageBlocks).word[k].Store(w[1])
	} else {
		var words []uint64
		kind, words = offsets(blk)
		loadOrNew(r.offs, b/pageBlocks).blk[k].CompareAndSwap(nil, &words)
	}
	pg.word[k].Store(w[0])
	pg.head[k].CompareAndSwap(0, uint64(uint32(blk[0]))|published|kind<<62)
}

// block returns block b's header and page, or ok false when the block
// is not published yet.
func (r *choiceRow) block(b int) (h uint64, pg *choicePage, ok bool) {
	pg = r.pages[b/pageBlocks].Load()
	if pg == nil {
		return 0, nil, false
	}
	h = pg.head[b%pageBlocks].Load()
	return h, pg, h != 0
}

// filled reports whether block b is published.
func (r *choiceRow) filled(b int) bool {
	_, _, ok := r.block(b)
	return ok
}

// at returns choice[d] in O(1), or ok false when d's block is not
// published yet.
func (r *choiceRow) at(d int) (c int32, ok bool) {
	b := d / choiceBlock
	h, pg, ok := r.block(b)
	if !ok {
		return 0, false
	}
	k, j := b%pageBlocks, uint(d%choiceBlock)
	first := int32(uint32(h))
	switch h >> 62 {
	case stepBit:
		// Bit 0 holds step 0, which is 0: steps 1..j sit in bits 1..j.
		return first + int32(bits.OnesCount64(pg.word[k].Load()&(uint64(2)<<j-1))), true
	case stepPair:
		// Each of the fields 0..j holds its step+2 (step 0 is 0), so
		// their sum less 2(j+1) is the sum of the steps.
		var lo, hi uint64
		if j < 32 {
			lo = pg.word[k].Load() & (uint64(4)<<(2*j) - 1)
		} else {
			lo = pg.word[k].Load()
			hi = r.pairs[b/pageBlocks].Load().word[k].Load() & (uint64(4)<<(2*(j-32)) - 1)
		}
		return first + int32(fieldSum(lo)+fieldSum(hi)-2*int(j+1)), true
	default:
		return first + r.offset(h, b, j), true
	}
}

// offset returns the offset of cell j from the first choice of offset
// block b, whose header is h.
func (r *choiceRow) offset(h uint64, b int, j uint) int32 {
	w := *r.offs[b/pageBlocks].Load().blk[b%pageBlocks].Load()
	if h>>62 == offsetInt16 {
		return int32(int16(w[j/4] >> (16 * (j % 4))))
	}
	return int32(uint32(w[j/2] >> (32 * (j % 2))))
}

// offsets encodes blk as each choice's offset from blk[0], in 16 bits
// when every offset fits in an int16 and in 32 otherwise (modulo 2^32,
// as int32 arithmetic wraps), and returns the kind and the words.
func offsets(blk []int32) (kind uint64, w []uint64) {
	kind, width := uint64(offsetInt16), uint(16)
	for _, v := range blk {
		if off := v - blk[0]; off != int32(int16(off)) {
			kind, width = offsetInt32, 32
			break
		}
	}
	per := 64 / width
	w = make([]uint64, (uint(len(blk))+per-1)/per)
	for k, v := range blk {
		w[uint(k)/per] |= uint64(uint32(v-blk[0])) & (1<<width - 1) << (width * (uint(k) % per))
	}
	return kind, w
}

// decodeBlock writes the choices of published block b's first
// len(blk) cells to blk (at most choiceBlock), walking its steps in
// order: the sequential decoder a rebuild reads a row's choices
// through.
func (r *choiceRow) decodeBlock(b int, blk []int32) {
	h, pg, _ := r.block(b)
	k := b % pageBlocks
	v := int32(uint32(h))
	switch h >> 62 {
	case stepBit:
		x := pg.word[k].Load()
		for j := range blk {
			v += int32(x & 1)
			x >>= 1
			blk[j] = v
		}
	case stepPair:
		x := pg.word[k].Load()
		for j := range blk {
			if j == 32 {
				x = r.pairs[b/pageBlocks].Load().word[k].Load()
			}
			v += int32(x&3) - 2
			x >>= 2
			blk[j] = v
		}
	default:
		for j := range blk {
			blk[j] = v + r.offset(h, b, uint(j))
		}
	}
}

// bitSteps ORs together every step of blk into bit, so the steps are
// all in {0, +1} exactly when bit <= 1, and w then holds them one bit
// each. It stays out of line: inlined into its caller, its loop
// variables spill to the stack, which makes packing about half again
// as slow.
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

// fieldSum is the sum of the 2-bit fields of x.
func fieldSum(x uint64) int {
	return bits.OnesCount64(x) + bits.OnesCount64(x&0xaaaaaaaaaaaaaaaa)
}
