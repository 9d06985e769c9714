package slotarr

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/table"
)

// TestSplitPlaceMatchesFastrange pins the arithmetic the read-free grow
// rests on: split bits taken against nb place an entry exactly where
// Fastrange puts it under nb·2^d, across chained grows, for as long as the
// 7-bit budget lasts — including bucket counts that are not powers of two.
func TestSplitPlaceMatchesFastrange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nb := range []uint64{1, 3, 74, 1000, 1 << 20, 1<<40 + 17} {
		for i := 0; i < 2000; i++ {
			hv := rng.Uint64()
			bi, lo := bits.Mul64(hv, nb)
			ext := splitBits(lo)
			cur, used := nb, uint(0)
			for {
				d := uint(rng.Intn(4))
				nbi, next, ok := splitPlace(bi, ext, d)
				if used+d > 7 {
					if ok {
						t.Fatalf("nb %d: %d+%d bits granted from a 7-bit budget", nb, used, d)
					}
					break
				}
				if !ok {
					t.Fatalf("nb %d: placement refused with %d of 7 bits used, d=%d", nb, used, d)
				}
				cur <<= d
				used += d
				if want := hashfn.Fastrange(hv, cur); nbi != want {
					t.Fatalf("nb %d hv %#x after %d doublings: bucket %d, Fastrange %d", nb, hv, used, nbi, want)
				}
				bi, ext = nbi, next
			}
		}
	}
	// A word carrying no split bits always takes the fallback, even for a
	// same-size rebuild.
	for d := uint(0); d < 8; d++ {
		if _, _, ok := splitPlace(5, 0, d); ok {
			t.Fatalf("ext == 0 placed without a hash at d=%d", d)
		}
	}
}

// countingHash wraps the default byte hash and counts calls. In a table
// whose ops all receive their hash (the Hashed forms), every call comes
// from a rebuild's fallback, which reads exactly one arena record per call:
// the count is the rebuilds' record reads.
type countingHash struct{ n atomic.Int64 }

func (c *countingHash) hash(b []byte) uint64 {
	c.n.Add(1)
	return hashfn.Bytes64(b)
}

// checkBucketPlacement walks the current generation and fails unless every
// live word sits in bucket Fastrange(hash(key), nb), in a lane or on that
// bucket's stash chain, with its metadata fingerprint published and its
// remaining split bits equal to the matching bits of the Fastrange
// remainder; and unless the live records are exactly ref.
func checkBucketPlacement(t *testing.T, bt *BucketTable, ref map[string]string) (stashed int) {
	t.Helper()
	st := bt.state.Load()
	seen := 0
	check := func(bi uint64, w uint64, lane int) {
		if w == 0 || w == slotTombstone {
			return
		}
		k, v := bt.ar.Record(slotRef(w))
		hv := hashfn.Bytes64(k)
		want, lo := bits.Mul64(hv, st.nb)
		if want != bi {
			t.Fatalf("key %q in bucket %d, Fastrange says %d (nb %d)", k, bi, want, st.nb)
		}
		if slotFP(w) != table.TagOf(hv) {
			t.Fatalf("key %q carries fingerprint %#x", k, slotFP(w))
		}
		if lane >= 0 && uint8(st.words[bi*BucketWords]>>(8*(lane+1))) != slotFP(w) {
			t.Fatalf("key %q: metadata byte disagrees with its slot word", k)
		}
		if ext := slotExt(w); ext != 0 {
			valid := 7 - bits.TrailingZeros8(ext)
			if valid > 0 && ext>>(8-valid) != uint8(lo>>(64-valid)) {
				t.Fatalf("key %q: split bits %08b disagree with remainder %#x", k, ext, lo)
			}
		}
		if rv, ok := ref[string(k)]; !ok || rv != string(v) {
			t.Fatalf("live record %q=%q, reference has (%q, %v)", k, v, rv, ok)
		}
		seen++
	}
	for bi := uint64(0); bi < st.nb; bi++ {
		for lane := 0; lane < BucketLanes; lane++ {
			check(bi, st.words[bi*BucketWords+uint64(lane)+1], lane)
		}
		for n := st.stash[bi].Load(); n != nil; n = n.next {
			if w := n.word.Load(); w != 0 && w != slotTombstone {
				stashed++
			}
			check(bi, n.word.Load(), -1)
		}
	}
	if seen != len(ref) || bt.Len() != len(ref) {
		t.Fatalf("index holds %d live words, Len %d, reference %d", seen, bt.Len(), len(ref))
	}
	return stashed
}

// TestBucketGrowPlacement drives inserts, overwrites and deletes from one
// bucket through more than ten doublings — past the 7-bit split budget, so
// the record-reading fallback runs too — and after every rebuild checks
// that every entry sits in its Fastrange bucket and the table equals a
// reference map. Ops go through the Hashed forms, so the counting hash
// sees only the fallback's calls. The default configuration sees same-size
// rebuilds from
// tombstone churn; the second lets stash chains fill (MaxLoad above 1), so
// rebuilds move many stash residents and double more than once.
func TestBucketGrowPlacement(t *testing.T) {
	for _, tc := range []struct {
		name    string
		maxLoad float64
	}{{"default", 0}, {"stash-heavy", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var c countingHash
			bt := NewBucketTable(BucketConfig{Buckets: 1, MaxLoad: tc.maxLoad, Hash: c.hash})
			h := bt.NewHandle()
			put := func(k, v string) bool { return h.PutHashed(hashfn.Bytes64([]byte(k)), []byte(k), []byte(v)) }
			rng := rand.New(rand.NewSource(11))
			// The first keys are written once and never touched again, so
			// their split bits run out after 7 doublings; keys holds the
			// rest, the ones overwrites and deletes pick from.
			ref := map[string]string{}
			for i := 0; i < 16; i++ {
				k := fmt.Sprintf("pinned-%02d", i)
				put(k, k)
				ref[k] = k
			}
			var keys []string
			next := 0
			var sameSize, multi, stashMoved int
			prevGrows, prevNB := bt.Grows(), bt.Buckets()
			for op := 0; bt.Buckets() < 1<<11 || op < 30000; op++ {
				// A churn phase (deletes plus reinserts at constant size)
				// every few thousand ops forces same-size rebuilds.
				churn := op%8000 >= 6000
				r := rng.Intn(10)
				switch {
				case len(keys) < 2 || (!churn && r < 5) || (churn && r < 3):
					k := fmt.Sprintf("gp-%06d", next)
					next++
					v := fmt.Sprintf("v%d", op)
					if put(k, v) {
						t.Fatalf("fresh key %q reported existing", k)
					}
					ref[k] = v
					keys = append(keys, k)
				case (!churn && r < 8) || (churn && r < 5):
					k := keys[rng.Intn(len(keys))]
					v := fmt.Sprintf("o%d", op)
					_, had := ref[k]
					if put(k, v) != had {
						t.Fatalf("overwrite of %q: existed mismatch", k)
					}
					ref[k] = v
				default:
					i := rng.Intn(len(keys))
					k := keys[i]
					_, had := ref[k]
					if h.DeleteHashed(hashfn.Bytes64([]byte(k)), []byte(k)) != had {
						t.Fatalf("delete of %q: presence mismatch", k)
					}
					delete(ref, k)
					keys[i] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
				}
				if g := bt.Grows(); g != prevGrows {
					nb := bt.Buckets()
					switch {
					case nb == prevNB:
						sameSize++
					case nb > 2*prevNB:
						multi++
					}
					prevGrows, prevNB = g, nb
					stashMoved += checkBucketPlacement(t, bt, ref)
				}
			}
			checkBucketPlacement(t, bt, ref)
			for k, v := range ref {
				if got, ok := h.GetHashed(hashfn.Bytes64([]byte(k)), []byte(k)); !ok || string(got) != v {
					t.Fatalf("Get(%q) = (%q, %v), want %q", k, got, ok, v)
				}
			}
			doublings := bits.Len64(bt.Buckets()) - 1
			t.Logf("grows %d, doublings %d, same-size %d, multi-doubling %d, stash residents moved %d, fallback record reads %d",
				bt.Grows(), doublings, sameSize, multi, stashMoved, c.n.Load())
			if doublings < 10 {
				t.Fatalf("only %d doublings", doublings)
			}
			if tc.maxLoad <= 1 && sameSize == 0 {
				t.Fatal("no same-size rebuild ran")
			}
			if stashMoved == 0 {
				t.Fatal("no rebuild moved a stash resident")
			}
			if c.n.Load() == 0 {
				t.Fatal("the split-bit budget never ran out; the fallback went untested")
			}
			if tc.maxLoad > 1 && multi == 0 {
				t.Fatal("no rebuild doubled more than once")
			}
		})
	}
}

// TestBucketGrowHashFree pins the cost of a rebuild within the split-bit
// budget: growing from one bucket through five doublings (as the
// benchmark's load does) with every op handed its hash makes zero calls to
// the table's hash and reads zero arena records.
func TestBucketGrowHashFree(t *testing.T) {
	var c countingHash
	bt := NewBucketTable(BucketConfig{Buckets: 1, Hash: c.hash})
	h := bt.NewHandle()
	key := func(i int) []byte { return []byte(fmt.Sprintf("hf-%05d", i)) }
	for i := 0; bt.Buckets() < 32; i++ {
		k := key(i)
		h.PutHashed(hashfn.Bytes64(k), k, []byte{byte(i)})
		if i%3 == 0 { // overwrites and tombstones ride along
			h.PutHashed(hashfn.Bytes64(k), k, []byte{byte(i + 1)})
		}
	}
	if g := bt.Grows(); g < 5 {
		t.Fatalf("grows = %d, want >= 5", g)
	}
	if n := c.n.Load(); n != 0 {
		t.Fatalf("rebuilds hashed and read %d records, want 0", n)
	}
	for i := 0; i < bt.Len(); i++ {
		k := key(i)
		want := byte(i)
		if i%3 == 0 {
			want++
		}
		if v, ok := h.GetHashed(hashfn.Bytes64(k), k); !ok || v[0] != want {
			t.Fatalf("key %d lost across hash-free rebuilds", i)
		}
	}
	// Each key-only form hashes exactly once; the Hashed forms never do.
	c.n.Store(0)
	k := key(0)
	h.Get(k)
	h.Put(k, []byte("x"))
	h.Mutate(k, func(old []byte, _ bool) []byte { return old })
	h.Delete(k)
	if n := c.n.Load(); n != 4 {
		t.Fatalf("four key-only ops hashed %d times, want 4", n)
	}
	c.n.Store(0)
	hv := hashfn.Bytes64(k)
	h.PutHashed(hv, k, []byte("y"))
	h.GetHashed(hv, k)
	h.MutateHashed(hv, k, func(old []byte, _ bool) []byte { return old })
	h.DeleteHashed(hv, k)
	if n := c.n.Load(); n != 0 {
		t.Fatalf("Hashed ops called the table hash %d times, want 0", n)
	}
}

// TestBucketGrowFallback pins the fallback: a published word whose split
// bits are gone (ext == 0) is re-placed from its record by the next
// rebuild — same-size or doubling — which stores fresh split bits, so the
// rebuild after that needs no record read.
func TestBucketGrowFallback(t *testing.T) {
	var c countingHash
	bt := NewBucketTable(BucketConfig{Buckets: 8, Hash: c.hash})
	h := bt.NewHandle()
	ref := map[string]string{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("fb-%02d", i)
		h.Put([]byte(k), []byte(k))
		ref[k] = k
	}
	// Strip every live word's split bits (single-goroutine test: plain
	// stores into the current generation are safe).
	st := bt.state.Load()
	stripped := 0
	for i := range st.words {
		if i%BucketWords != 0 && st.words[i] != 0 && st.words[i] != slotTombstone {
			st.words[i] = slotWithExt(st.words[i], 0)
			stripped++
		}
	}
	c.n.Store(0)
	bt.grow() // below the trigger: a no-op
	if bt.Grows() != 0 {
		t.Fatal("grow ran below its trigger")
	}
	st.claimed.Store(int64(float64(st.nb*BucketLanes)*bt.maxLoad) + 1)
	bt.grow() // same-size rebuild: live entries are far below 70% of lanes
	if bt.Buckets() != 8 || bt.Grows() != 1 {
		t.Fatalf("expected one same-size rebuild, got nb %d grows %d", bt.Buckets(), bt.Grows())
	}
	if got := c.n.Load(); got != int64(stripped) {
		t.Fatalf("rebuild re-read %d records, want the %d stripped words", got, stripped)
	}
	checkBucketPlacement(t, bt, ref)
	for i := 20; bt.Grows() < 2; i++ {
		k := fmt.Sprintf("fb-%02d", i)
		h.PutHashed(hashfn.Bytes64([]byte(k)), []byte(k), []byte(k))
		ref[k] = k
	}
	if bt.Buckets() != 16 || c.n.Load() != int64(stripped) {
		t.Fatalf("doubling after the fallback: nb %d, record reads %d (want 16, %d)", bt.Buckets(), c.n.Load(), stripped)
	}
	checkBucketPlacement(t, bt, ref)
}

// BenchmarkBucketLoadGrows loads 12,288 keys into a table created at 74
// buckets (2^9 slots), through five doublings — the shape of the
// benchmark's bucket set-up — with every op handed its hash.
func BenchmarkBucketLoadGrows(b *testing.B) {
	const n = 12288
	keys := make([][]byte, n)
	hvs := make([]uint64, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%d", hashfn.City64(uint64(i))))
		hvs[i] = hashfn.Bytes64(keys[i])
	}
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		bt := NewBucketTableSlots(1 << 9)
		h := bt.NewHandle()
		for i, k := range keys {
			h.PutHashed(hvs[i], k, val)
		}
		if bt.Grows() != 5 {
			b.Fatalf("grows = %d, want 5", bt.Grows())
		}
	}
}
