package core

import "math/bits"

// shardIndexer maps a page address to its fault-pipeline shard without the
// per-fault 64-bit divide the naive `(addr/PageSize) % workers` costs. The
// page-address layout is fixed (PageSize is a power of two), so the page
// number is a shift; the modulo is a mask when the shard count is a power of
// two and a Lemire-style multiplicative reduction on the 64-bit fractional
// remainder otherwise. Both forms agree exactly with the reference formula —
// BenchmarkWorkerOf and TestShardIndexerMatchesReference pin it — so every
// structure sharded by page address (LRU segments, write-list events, stats
// cells) can share one indexer and stay consistent.
type shardIndexer struct {
	shards uint64
	// mask is shards-1 when shards is a power of two; otherwise ^uint64(0)
	// marks the reciprocal path.
	mask uint64
	// recip is ceil(2^64 / shards), the fixed-point reciprocal used by the
	// remainder-by-multiplication path (Lemire, "Faster remainders when the
	// divisor is a constant", 2019).
	recip uint64
	pow2  bool
	// plain falls back to the hardware divide for shard counts where the
	// fixed-point reduction is not provably exact (see newShardIndexer).
	plain bool
}

// pageShift converts a page address to its page number.
const pageShift = 12 // log2(PageSize)

// newShardIndexer builds an indexer for the given shard count (minimum 1).
func newShardIndexer(shards int) shardIndexer {
	if shards < 1 {
		shards = 1
	}
	s := uint64(shards)
	ix := shardIndexer{shards: s}
	if s&(s-1) == 0 {
		ix.pow2 = true
		ix.mask = s - 1
		return ix
	}
	if s >= 1<<pageShift {
		// The reduction's error term is bounded by page*shards/2^64; page
		// numbers reach 2^52 (addr < 2^64, 4 KiB pages), so exactness holds
		// only for shards < 2^12. Larger non-power-of-two counts take the
		// hardware divide — they are far past any realistic pipeline width.
		ix.plain = true
		return ix
	}
	// ceil(2^64 / s) without 128-bit literals: floor((2^64-1)/s) + 1.
	ix.recip = ^uint64(0)/s + 1
	return ix
}

// index returns the shard owning the page at addr.
func (ix shardIndexer) index(addr uint64) int {
	page := addr >> pageShift
	if ix.pow2 {
		return int(page & ix.mask)
	}
	if ix.plain {
		return int(page % ix.shards)
	}
	// page % shards == high64((page * recip) * shards / 2^64): the low
	// 64 bits of page*recip are the fractional part of page/shards in
	// 0.64 fixed point; scaling by shards recovers the remainder.
	frac := page * ix.recip
	hi, _ := bits.Mul64(frac, ix.shards)
	return int(hi)
}
