package dramhit

import (
	"fmt"
	"sync/atomic"
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// countingBucketTable builds a bucket-layout table whose engine hash counts
// its calls. It mirrors New's wiring: the front-end uint64 hash is the
// engine's hash of the key's 8-byte encoding.
func countingBucketTable(buckets uint64, extra ...func(*Config)) (*Table, *atomic.Int64) {
	tb := newBucketTable(buckets*slotarr.BucketLanes, extra...)
	calls := new(atomic.Int64)
	bkt := slotarr.NewBucketTable(slotarr.BucketConfig{
		Buckets: buckets,
		Hash: func(b []byte) uint64 {
			calls.Add(1)
			return hashfn.Bytes64(b)
		},
	})
	tb.bkt = bkt
	tb.hash = func(k uint64) uint64 {
		var kb [8]byte
		putLE(kb[:], k)
		return bkt.HashOf(kb[:])
	}
	return tb, calls
}

// TestBytePipelineHashesOnce pins that a byte-pipeline op hashes its key
// exactly once — at SubmitBytes, for the prefetch — and the drain reuses
// that hash, including while the table grows from one bucket through five
// doublings (the rebuilds themselves hash nothing).
func TestBytePipelineHashesOnce(t *testing.T) {
	tb, calls := countingBucketTable(1)
	h := tb.NewHandle()
	done := 0
	h.OnByteComplete(func(ByteCompletion) { done++ })
	key := func(i int) []byte { return []byte(fmt.Sprintf("once-%04d", i)) }
	n := 0
	for ; tb.Bucket().Buckets() < 32; n++ {
		h.SubmitBytes(table.Put, uint64(n), key(n), []byte("v"))
		if n%16 == 15 {
			h.FlushBytes()
		}
	}
	h.FlushBytes()
	if got := calls.Load(); got != int64(n) || done != n {
		t.Fatalf("%d byte Puts (%d completed) across %d grows made %d hash calls, want %d",
			n, done, tb.Bucket().Grows(), got, n)
	}
	for _, op := range []table.Op{table.Get, table.Put, table.Delete} {
		calls.Store(0)
		h.SubmitBytes(op, 0, key(1), []byte("w"))
		h.FlushBytes()
		if got := calls.Load(); got != 1 {
			t.Fatalf("one byte %v made %d hash calls, want 1", op, got)
		}
	}
}

// TestBucketPipelineHashesOnce pins the uint64 paths on the bucket layout:
// the pipelined drain reuses the hash Submit computed for the prefetch,
// with combining on or off, and the governor's direct mode hashes once.
func TestBucketPipelineHashesOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"pipelined", func(c *Config) { c.Combining = table.CombineOff }},
		{"combining", func(c *Config) { c.Combining = table.CombineOn }},
		{"direct", func(c *Config) { c.Governor = table.GovernorDirect }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, calls := countingBucketTable(64, tc.cfg)
			h := tb.NewHandle()
			reqs := []table.Request{
				{Op: table.Put, Key: 1, Value: 10},
				{Op: table.Upsert, Key: 2, Value: 5},
				{Op: table.Get, Key: 1, ID: 1},
				{Op: table.Delete, Key: 2},
			}
			resps := make([]table.Response, 4)
			nreq, nresp := h.Submit(reqs, resps)
			for done := false; !done; {
				var n int
				n, done = h.Flush(resps[nresp:])
				nresp += n
			}
			if nreq != len(reqs) || !resps[0].Found || resps[0].Value != 10 {
				t.Fatalf("Submit consumed %d, response %+v", nreq, resps[0])
			}
			if got := calls.Load(); got != int64(len(reqs)) {
				t.Fatalf("%d requests made %d hash calls, want %d", len(reqs), got, len(reqs))
			}
		})
	}
}
