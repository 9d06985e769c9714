package workload

import (
	"math/rand"

	"dramhit/internal/hashfn"
)

// KeyStream produces uint64 keys for the hash-table experiments. Rank
// streams (uniform or zipfian) are turned into key values through a
// scrambling bijection so that "rank 0" does not mean "key 0": real
// workloads do not present sorted key spaces, and the hash tables reserve a
// couple of key values (empty/tombstone) that the scramble avoids by
// construction only statistically — the tables themselves must handle
// reserved keys via their side slots.
type KeyStream struct {
	zipf  *Zipf
	salt  uint64
	mixed bool
	// miss is the fraction of keys drawn from ranks >= n — keys that are
	// structurally disjoint from the stream's own [0, n) population, so a
	// lookup for one always misses a table populated from the same stream.
	miss    float64
	missRng *rand.Rand
	n       uint64
}

// NewKeyStream builds a stream of keys drawn from ranks in [0, n) with the
// given zipf skew (0 = uniform). Two streams with the same seed and
// parameters produce identical sequences.
func NewKeyStream(seed int64, n uint64, theta float64) *KeyStream {
	return NewKeyStreamMiss(seed, n, theta, 0)
}

// NewKeyStreamMiss is NewKeyStream with a miss ratio: each draw is, with
// probability miss, replaced by a key from the disjoint rank range
// [n, 2n) under the same salt — a key no draw from the positive range can
// ever produce (ScrambleRank is a bijection), so lookups for it are
// guaranteed negative against a table populated with this stream's (or
// UniqueKeys' same-seed) positive keys. miss=0 degenerates to NewKeyStream
// exactly (same sequence, draw for draw).
func NewKeyStreamMiss(seed int64, n uint64, theta, miss float64) *KeyStream {
	if miss < 0 || miss > 1 {
		panic("workload: miss ratio must be in [0, 1]")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &KeyStream{
		zipf:  NewZipf(rng, n, theta),
		salt:  rng.Uint64() | 1,
		mixed: true,
		miss:  miss,
		n:     n,
	}
	if miss > 0 {
		s.missRng = rand.New(rand.NewSource(seed ^ 0x6d697373)) // "miss"
	}
	return s
}

// NewKeyStreamSalt is NewKeyStream with the rank→key salt given rather than
// drawn from seed: seed drives only the rank draws. Streams that share a
// salt share a key space, so streams with distinct seeds and the salt
// LoadSalt(s) all draw keys of the UniqueKeys(s, n) population.
func NewKeyStreamSalt(seed int64, salt, n uint64, theta float64) *KeyStream {
	s := NewKeyStream(seed, n, theta)
	s.salt = salt
	return s
}

// LoadSalt returns the salt UniqueKeys(seed, ·) scrambles ranks with (and
// NewKeyStream(seed, ·) draws): rank i of that population is
// ScrambleRank(i, LoadSalt(seed)).
func LoadSalt(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() | 1 }

// NewRankStream is like NewKeyStream but returns raw ranks without
// scrambling; useful when the caller wants to map ranks itself (e.g. the
// memory simulator, which needs to know how hot each key is).
func NewRankStream(seed int64, n uint64, theta float64) *KeyStream {
	rng := rand.New(rand.NewSource(seed))
	return &KeyStream{zipf: NewZipf(rng, n, theta), mixed: false}
}

// Next returns the next key (or rank, for a rank stream).
func (s *KeyStream) Next() uint64 {
	r := s.zipf.Next()
	if s.missRng != nil && s.missRng.Float64() < s.miss {
		// Redirect to the never-inserted range: uniform over [n, 2n).
		r = s.n + uint64(s.missRng.Int63n(int64(s.n)))
	}
	if !s.mixed {
		return r
	}
	return ScrambleRank(r, s.salt)
}

// Zipf exposes the underlying distribution (for analytic queries).
func (s *KeyStream) Zipf() *Zipf { return s.zipf }

// ScrambleRank maps a rank to a key with a salted bijection. Identical
// (rank, salt) pairs map to identical keys, so a zipfian stream still
// revisits its hot keys; distinct ranks map to distinct keys.
func ScrambleRank(rank, salt uint64) uint64 {
	return hashfn.City64(rank ^ salt)
}

// UniqueKeys returns n distinct pseudo-random keys, suitable for populating
// a table to a target fill factor. Keys are produced by a bijection over
// 0..n-1, so uniqueness is structural, not probabilistic, and no O(n) set is
// needed for deduplication.
func UniqueKeys(seed int64, n int) []uint64 {
	salt := LoadSalt(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = ScrambleRank(uint64(i), salt)
	}
	return keys
}

// UniqueKeyAt returns the i-th key of the UniqueKeys(seed, ·) sequence
// without materializing the slice; used by the simulator on key spaces of a
// billion elements.
func UniqueKeyAt(seed int64, i uint64) uint64 {
	salt := LoadSalt(seed)
	return ScrambleRank(i, salt)
}

// MissKeys returns count keys guaranteed absent from UniqueKeys(seed, n):
// the same salted bijection applied to ranks n, n+1, ... — structurally
// disjoint from the positive ranks [0, n), so the negative-lookup
// benchmarks need no membership set to certify their misses.
func MissKeys(seed int64, n, count int) []uint64 {
	salt := LoadSalt(seed)
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = ScrambleRank(uint64(n+i), salt)
	}
	return keys
}

// Op is a hash-table operation kind in a generated workload.
type Op uint8

// Operation kinds. The zero value is a Get so that a zero-filled request
// slice is harmless.
const (
	Get Op = iota
	Put
	Upsert
	Delete
)

// MixedOp is one element of a mixed read/write stream.
type MixedOp struct {
	Op  Op
	Key uint64
}

// MixedStream generates a stream mixing Gets and Puts over a keyspace with
// the given skew; readProb is the probability that an operation is a Get
// (paper Figure 8c sweeps readProb from 0 to 1).
type MixedStream struct {
	keys     *KeyStream
	rng      *rand.Rand
	readProb float64
}

// NewMixedStream builds a mixed-op stream. Keys are drawn from [0, n) ranks
// with the given theta and scrambled.
func NewMixedStream(seed int64, n uint64, theta, readProb float64) *MixedStream {
	return &MixedStream{
		keys:     NewKeyStream(seed, n, theta),
		rng:      rand.New(rand.NewSource(seed ^ 0x5deece66d)),
		readProb: readProb,
	}
}

// Next returns the next operation.
func (m *MixedStream) Next() MixedOp {
	op := Put
	if m.rng.Float64() < m.readProb {
		op = Get
	}
	return MixedOp{Op: op, Key: m.keys.Next()}
}
