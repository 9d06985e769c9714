package dramhitp

import (
	"sync/atomic"
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// countingBucketTableP builds a started bucket-layout table whose partition
// engines share one call-counting hash (and, as in New, one arena).
func countingBucketTableP(slots uint64) (*Table, *atomic.Int64) {
	tb := New(Config{Slots: slots, Producers: 2, Consumers: 1, Layout: table.LayoutBucket})
	calls := new(atomic.Int64)
	hash := func(b []byte) uint64 {
		calls.Add(1)
		return hashfn.Bytes64(b)
	}
	for i := range tb.parts {
		tb.parts[i].bkt = slotarr.NewBucketTable(slotarr.BucketConfig{
			Buckets: tb.parts[i].bkt.Buckets(),
			Hash:    hash,
			Arena:   tb.ar,
		})
	}
	tb.Start()
	return tb, calls
}

// TestPBucketHashCalls pins how often each bucket path hashes its key: the
// synchronous byte ops and the pipelined and direct reads once, a
// delegated write twice — once on the producer to route it, once on the
// owner, which hands that hash to the engine.
func TestPBucketHashCalls(t *testing.T) {
	tb, calls := countingBucketTableP(4096)
	defer tb.Close()
	w := tb.NewWriteHandle()
	defer w.Close()
	r := tb.NewReadHandle()
	expect := func(what string, want int64, fn func()) {
		t.Helper()
		calls.Store(0)
		fn()
		if got := calls.Load(); got != want {
			t.Fatalf("%s: %d hash calls, want %d", what, got, want)
		}
	}
	keys := workload.UniqueKeys(3, 64)
	expect("64 delegated Puts", 2*64, func() {
		for _, k := range keys {
			w.Put(k, k)
		}
		w.Barrier()
	})
	expect("delegated Upsert", 2, func() { w.Upsert(keys[0], 1); w.Barrier() })
	expect("delegated Delete", 2, func() { w.Delete(keys[1]); w.Barrier() })
	expect("direct Get", 1, func() {
		if v, ok := r.Get(keys[2]); !ok || v != keys[2] {
			t.Fatalf("Get = (%d, %v)", v, ok)
		}
	})
	expect("pipelined Gets", 8, func() {
		reqs := make([]table.Request, 8)
		for i := range reqs {
			reqs[i] = table.Request{Op: table.Get, Key: keys[8+i], ID: uint64(i)}
		}
		resps := make([]table.Response, 8)
		_, n := r.Submit(reqs, resps)
		for done := false; !done; {
			var m int
			m, done = r.Flush(resps[n:])
			n += m
		}
		if n != 8 {
			t.Fatalf("%d responses, want 8", n)
		}
	})
	expect("PutBytes", 1, func() { w.PutBytes([]byte("bk"), []byte("bv")) })
	expect("UpsertBytes", 1, func() {
		w.UpsertBytes([]byte("bk"), func(old []byte, _ bool) []byte { return old })
	})
	expect("GetBytes", 1, func() { r.GetBytes([]byte("bk")) })
	expect("pipelined GetBytes", 1, func() {
		r.OnGetBytesComplete(func(uint64, []byte, bool) {})
		r.SubmitGetBytes(0, []byte("bk"))
		r.FlushGetBytes()
	})
	expect("DeleteBytes", 1, func() { w.DeleteBytes([]byte("bk")) })
}
