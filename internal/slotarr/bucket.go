package slotarr

import (
	"math/bits"
	"sync/atomic"

	"dramhit/internal/arena"
)

// This file holds the storage primitives of the second physical layout
// ("bucket", selected by Config.Layout; see BucketTable in buckettable.go
// for the engine). The flat layout above keeps keys and values inline and a
// tag sidecar in a separate allocation; the bucket layout instead makes the
// metadata co-resident with the slots, TurboHash-style, so a probe touches
// exactly one cache line:
//
//	word 0  (meta)   byte 0: control — bits 0..6 per-lane publish bitmap,
//	                          bit 7 stash-nonempty flag
//	                  bytes 1..7: H2 fingerprints of payload lanes 0..6
//	word 1..7 (slots) one payload lane each:
//	                  0 = empty, ^0 = tombstone, else (published)
//	                  bits  0..47  arena.Ref
//	                  bits 48..55  fingerprint (1..255)
//	                  bits 56..63  split bits
//
// The fingerprint is stored twice — in its metadata byte for the SWAR match
// (simd.BucketCandidates7 against word 0) and redundantly in the slot word
// — so a reader that takes a candidate lane can confirm or reject it from
// the slot word alone, and a resize can rebuild metadata from slot words
// alone.
//
// The split bits let a resize place the entry without reading its record.
// Buckets are chosen by Fastrange: the bucket is the high word of
// hv × nb, and the low word's top bits are what the bucket index gains when
// nb doubles (hv × 2nb = (hv × nb) << 1). A writer stores the top 7 bits of
// that low word, computed against the bucket count it wrote under, followed
// by a 1 sentinel: ext = top7(lo)<<1 | 1. After d doublings the entry's
// bucket is bi<<d | ext>>(8-d), and the remaining budget is ext<<d, the
// sentinel marking where the valid bits end. Only an entry that went 8 or
// more doublings without being rewritten has run out of bits; the resize
// then re-derives its bucket from the record (see BucketTable.grow). The
// remainder, not raw hash bits, is stored because bucket counts are not
// powers of two.
//
// Publication order is slot-word CAS first (the release edge for the arena
// record bytes), metadata CAS-OR second; the zero-byte fold in
// BucketCandidates7 keeps the window between the two false-negative-free.
// Fingerprint bytes are write-once (0 → fp): a tombstoned lane is never
// reclaimed in place, because reusing it under a different fingerprint
// would let a concurrent reader's candidate mask go stale into a false
// negative. Dead lanes are swept by the next resize, which drops
// tombstones wholesale.

const (
	// BucketWords is the size of one bucket in uint64 words — exactly one
	// cache line (table.CacheLineBytes).
	BucketWords = 8
	// BucketLanes is the number of payload slots per bucket (word 0 is
	// metadata).
	BucketLanes = 7
)

// bucketStashBit is the control-byte flag marking a non-empty stash chain.
const bucketStashBit = 0x80

// slotTombstone marks a deleted lane. A published word can never equal it:
// its Ref bits would name byte offset 2^32-1 of segment 2^16-1, and record
// offsets stay far below 2^32-1 (segments are megabytes). Its fingerprint
// byte is 0xff, a legal fingerprint, so a lane match checks the byte and
// excludes the tombstone explicitly (slotMatch).
const slotTombstone = ^uint64(0)

// slotFPShift and slotExtShift position the fingerprint and split-bit
// bytes above the Ref.
const (
	slotFPShift  = arena.RefBits
	slotExtShift = arena.RefBits + 8
)

// slotWord packs split bits, a fingerprint and an arena reference into one
// published slot word.
func slotWord(ext, fp uint8, ref arena.Ref) uint64 {
	return uint64(ext)<<slotExtShift | uint64(fp)<<slotFPShift | uint64(ref)
}

// slotFP extracts the fingerprint byte (0 for an empty word).
func slotFP(w uint64) uint8 { return uint8(w >> slotFPShift) }

// slotExt extracts the split bits.
func slotExt(w uint64) uint8 { return uint8(w >> slotExtShift) }

// slotWithExt replaces w's split bits.
func slotWithExt(w uint64, ext uint8) uint64 {
	return w&^(0xff<<slotExtShift) | uint64(ext)<<slotExtShift
}

// slotMatch reports whether w is a published word carrying fingerprint fp
// (fp is never 0, so an empty word never matches).
func slotMatch(w uint64, fp uint8) bool {
	return slotFP(w) == fp && w != slotTombstone
}

// slotRef extracts the arena reference of a published slot word.
func slotRef(w uint64) arena.Ref {
	return arena.Ref(w & (1<<arena.RefBits - 1))
}

// splitBits encodes the low word of hv × nb (bits.Mul64) as the split bits
// a writer stores: its top 7 bits and the 1 sentinel.
func splitBits(lo uint64) uint8 { return uint8(lo>>57)<<1 | 1 }

// splitPlace maps an entry of bucket bi to its bucket after the bucket
// count is multiplied by 2^d, and returns its remaining split bits. ok is
// false when ext holds fewer than d valid bits (including ext == 0, which
// holds none); the caller must then re-derive the bucket from the hash.
func splitPlace(bi uint64, ext uint8, d uint) (nbi uint64, next uint8, ok bool) {
	if uint(bits.TrailingZeros8(ext))+d > 7 {
		return 0, 0, false
	}
	return bi<<d | uint64(ext)>>(8-d), ext << d, true
}

// metaFPByte positions fp in lane's metadata byte (bytes 1..7 of the meta
// word; byte 0 is the control byte).
func metaFPByte(lane int, fp uint8) uint64 {
	return uint64(fp) << (8 * (lane + 1))
}

// metaPublishBit is lane's bit in the control byte's publish bitmap.
func metaPublishBit(lane int) uint64 { return 1 << lane }

// stashNode is one overflow entry of a bucket's per-bucket stash chain
// (Dash-style): inserts that find all seven lanes claimed prepend here
// instead of reprobing into neighbouring buckets. word carries the same
// encoding as a slot word and supports the same CAS transitions
// (overwrite, tombstone); next is immutable once the node is linked.
type stashNode struct {
	word atomic.Uint64
	next *stashNode
}
