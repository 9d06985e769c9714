package main

import (
	"dramhit/internal/arena"
	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/hashfn"
	"dramhit/internal/slotarr"
)

// statsFields lists the counters of s, for field-wise arithmetic.
func statsFields(s *idramhit.Stats) []*uint64 {
	return []*uint64{&s.Gets, &s.Puts, &s.Upserts, &s.Deletes, &s.Hits, &s.Failed,
		&s.Reprobes, &s.Lines, &s.KeyLines, &s.TagSkips, &s.TagHits, &s.TagFalse,
		&s.CombinedUpserts, &s.PiggybackedGets, &s.ForwardedGets, &s.CASAttempts}
}

// statsDelta returns the handle counters accumulated since before.
func statsDelta(now, before idramhit.Stats) idramhit.Stats {
	bf := statsFields(&before)
	for i, f := range statsFields(&now) {
		*f -= *bf[i]
	}
	return now
}

func addStats(a, b idramhit.Stats) idramhit.Stats {
	bf := statsFields(&b)
	for i, f := range statsFields(&a) {
		*f += *bf[i]
	}
	return a
}

// reportHandleLayers writes the dramhit.* and slotarr.* probe metrics read
// from the handles' own counters (d is the timed phase's delta).
func reportHandleLayers(r *report, d idramhit.Stats, ops uint64, submitNS, flushNS int64) {
	fops := float64(ops)
	r.setLayer("dramhit.submit_ns_per_op", "ns/op", float64(submitNS)/fops)
	r.setLayer("dramhit.flush_ns_per_op", "ns/op", float64(flushNS)/fops)
	r.setLayer("dramhit.reprobes_per_op", "count/op", float64(d.Reprobes)/fops)
	r.setLayer("dramhit.combined_per_op", "count/op", float64(d.CombinedUpserts+d.PiggybackedGets+d.ForwardedGets)/fops)
	r.setLayer("slotarr.lines_per_op", "lines/op", float64(d.Lines)/fops)
	r.setLayer("slotarr.keylines_per_op", "lines/op", float64(d.KeyLines)/fops)
	r.setLayer("slotarr.tag_skip_ratio", "ratio", ratio(d.TagSkips, d.Lines))
	r.setLayer("slotarr.tag_false_ratio", "ratio", ratio(d.TagFalse, d.TagHits+d.TagFalse))
	r.setLayer("slotarr.cas_per_op", "count/op", float64(d.CASAttempts)/fops)
}

// arenaSnap is the arena state the arena.* metrics are deltas of.
type arenaSnap struct {
	appended  uint64 // bytes ever appended (freed segments counted full)
	used      uint64 // bytes appended to still-linked segments
	live      uint64 // used minus retired
	capacity  uint64 // capacity of still-linked segments
	segsLive  int
	segsFreed uint64
}

// takeArena reads the arena's public accounting. Freed segments have left
// the directory, so their bytes are counted at the default segment size:
// a segment is sealed, and later freed, only once a record no longer fits,
// so it holds within one record of that.
func takeArena(a *arena.Arena) arenaSnap {
	var s arenaSnap
	for _, st := range a.SegmentStats() {
		s.used += st.Used
		s.live += st.Used - st.Dead
		s.capacity += st.Cap
	}
	_, s.segsLive = a.Segments()
	s.segsFreed = a.Freed()
	s.appended = s.used + s.segsFreed*arena.DefaultSegmentBytes
	return s
}

// indexBytes is the bucket index's own memory: 64-byte buckets plus
// 16-byte stash nodes.
func indexBytes(b *slotarr.BucketTable) float64 {
	return float64(b.Buckets())*64 + float64(b.Stashed())*16
}

// reportArena writes the arena.* metrics for a phase of ops operations.
func reportArena(r *report, a, b arenaSnap, ops uint64) {
	r.setLayer("arena.bytes_appended_per_op", "B/op", float64(b.appended-a.appended)/float64(ops))
	r.setLayer("arena.live_byte_ratio", "ratio", ratio(b.live, b.used))
	r.setLayer("arena.segments_live", "count", float64(b.segsLive))
	r.setLayer("arena.segments_freed", "count", float64(b.segsFreed-a.segsFreed))
}

// reportBucketIndex writes the resize and stash metrics of a bucket table.
// Grows counts from table creation, so the load's doublings (set-up cost)
// show beside the timed phase's.
func reportBucketIndex(r *report, t *idramhit.Table, stallNS int64) {
	b := t.Bucket()
	r.setLayer("slotarr.grows", "count", float64(b.Grows()))
	r.setLayer("slotarr.grow_stall_ms", "ms", float64(stallNS)/1e6)
	r.setLayer("slotarr.stash_per_key", "ratio", float64(b.Stashed())/float64(t.Len()))
	r.setLayer("slotarr.load_factor", "ratio", t.Fill())
}

// layerMetrics lists every per-layer metric and its unit. A traced run
// reports all of them: a layer the workload does not exercise reports 0,
// and so does one that runs only inside the server, whose handles are
// private to its connections.
var layerMetrics = [][2]string{
	{"workload.gen_ns_per_op", "ns/op"},
	{"hashfn.ns_per_key", "ns/key"},
	{"dramhit.submit_ns_per_op", "ns/op"},
	{"dramhit.flush_ns_per_op", "ns/op"},
	{"dramhit.reprobes_per_op", "count/op"},
	{"dramhit.combined_per_op", "count/op"},
	{"slotarr.lines_per_op", "lines/op"},
	{"slotarr.keylines_per_op", "lines/op"},
	{"slotarr.tag_skip_ratio", "ratio"},
	{"slotarr.tag_false_ratio", "ratio"},
	{"slotarr.cas_per_op", "count/op"},
	{"slotarr.grows", "count"},
	{"slotarr.grow_stall_ms", "ms"},
	{"slotarr.stash_per_key", "ratio"},
	{"slotarr.load_factor", "ratio"},
	{"arena.bytes_appended_per_op", "B/op"},
	{"arena.live_byte_ratio", "ratio"},
	{"arena.segments_live", "count"},
	{"arena.segments_freed", "count"},
	{"resp.parse_ns_per_req", "ns/req"},
	{"resp.encode_ns_per_reply", "ns/reply"},
	{"mctext.parse_ns_per_req", "ns/req"},
	{"kvserver.server_p50_us", "us"},
	{"kvserver.server_p99_us", "us"},
	{"client.write_ns_per_batch", "ns/batch"},
	{"client.read_ns_per_batch", "ns/batch"},
	{"sys.read_calls_per_op", "calls/op"},
	{"sys.write_calls_per_op", "calls/op"},
	{"sys.bytes_per_read", "B/call"},
	{"sys.cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_inuse_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"budget.unaccounted_frac", "ratio"},
}

// fillLayers sets every per-layer metric the workload did not report to 0
// and flags any it reported that is not in layerMetrics.
func fillLayers(r *report) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m[0]] = true
		if _, ok := r.layers[m[0]]; !ok {
			r.setLayer(m[0], m[1], 0)
		}
	}
	for name := range r.layers {
		if !known[name] {
			r.failf("per-layer metric %q is not in the metric list", name)
		}
	}
}

// hashReplayBytes times hashfn.Bytes64 — the bucket engine's hash — over
// byte keys captured from the workload's own stream.
func hashReplayBytes(keys [][]byte) float64 {
	var sink uint64
	ns := medianNS(7, func() {
		for _, k := range keys {
			sink += hashfn.Bytes64(k)
		}
	})
	hashSink += sink
	return ns / float64(len(keys))
}

// hashSink keeps the replayed hashes live.
var hashSink uint64

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
