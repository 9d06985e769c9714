package main

import (
	"bytes"
	"math/rand"
	"time"

	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/table"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

// bucket-zipf-churn: writes beside reads on one byte pipeline. A bucket
// table created at 2^9 slots is loaded with 12,288 byte keys through five
// doublings; the timed phase overwrites zipf-hot keys and inserts enough
// new ones to cross the next grow threshold.
//
// Index and arena stay near 3 MB at the end of a phase. On the reference
// VM memory latency is ~10 ns up to 1 MiB and ~50 ns at 4 MiB, but from
// 8 MiB up it jumps to 130–150 ns whenever the neighbours' traffic claims
// the shared last-level cache; figures on that plateau drift by tens of
// percent within minutes.
//
// Arena bytes grow with every write (dead records are reclaimed only when
// a whole segment dies), so one phase is a fixed, short op count on a fresh
// table, and a run times many phases.
const (
	bucketInitSlots = 1 << 9
	bucketLoad      = 3 << 12
	bucketMaxValue  = 256
	// The first grow after the load comes at 0.95 × 16,408 lanes, i.e.
	// 3,300 new keys: about 33 K operations of the phase at 10% new-key
	// Puts. The phase runs 65,536, so it grows exactly once (the next
	// threshold is 15 K keys further).
	bucketPhaseOps   = 1 << 16
	bucketPhasesPerS = 30 // timed phases per --seconds
	bucketWarmup     = 1 << 11
)

// Op kinds of the bucket mix.
const (
	bGet = iota
	bOverwrite
	bInsert
)

// bucketOp is one request of a batch and, after FlushBytes, its answer.
type bucketOp struct {
	kind  uint8
	key   uint64
	kb    []byte // rendered key
	vb    []byte // rendered value (Puts)
	vlen  int    // value length written, or expected by a Get
	got   []byte // Get answer (aliases the arena record)
	found bool
}

type bucketEnv struct {
	t    *idramhit.Table
	h    *idramhit.Handle
	salt uint64
	// stream is the pre-drawn op sequence; pos is the next op to run.
	stream   bucketStream
	pos      int
	inserted uint64 // new keys Put so far
	ops      [batchSize]bucketOp
	keyBuf   []byte
	valBuf   []byte
	scratch  []byte
	tt       *threadSpans
	batch    uint32
	lat      []uint32
	bad      uint64
	gets     uint64
	maxStall int64 // traced: longest batch during which Grows advanced
}

// bucketStream is a pre-drawn op sequence. ranks[i] is the key's rank;
// codes[i] holds the value length (the length to write, or for a Get the
// length last written) with the op kind in the high bits. Drawing zipf
// ranks and sizes, and tracking every key's current length, costs more
// than a cached table operation, so it all happens before the timer
// starts: the timed loop only renders bytes and never touches per-key
// bookkeeping.
type bucketStream struct {
	ranks []uint32
	codes []uint16
	// live is Σ(len(key)+len(value)) over the live keys once the whole
	// stream has run.
	live uint64
}

const (
	codeGet    = 1 << 15
	codeInsert = 1 << 14
	codeLen    = 1<<14 - 1
)

// drawBucketStream draws the load (bucketLoad inserts in rank order)
// followed by ops mixed operations: 60% Get and 30% overwrite Put on
// zipf(0.99) ranks over the loaded keys, 10% Put of a new key, write sizes
// zipf over [1, 256] bytes. The same seed draws the same stream.
func drawBucketStream(seed int64, salt uint64, ops uint64) bucketStream {
	zipf := workload.NewZipf(rand.New(rand.NewSource(seed)), bucketLoad, ycsb.Theta)
	sizer := workload.NewValueSizer(seed, bucketMaxValue, ycsb.Theta)
	g := newRNG(seed, 7)
	n := bucketLoad + ops
	st := bucketStream{ranks: make([]uint32, n), codes: make([]uint16, n)}
	vlen := make([]uint16, n) // current value length by rank; 0 = never written
	next := uint32(bucketLoad)
	var kb [24]byte
	for i := range st.ranks {
		var rank uint32
		switch x := g.next() % 10; {
		case i < bucketLoad:
			rank = uint32(i)
		case x == 9:
			rank = next
			next++
		default:
			rank = uint32(zipf.Next())
			if x < 6 {
				st.ranks[i], st.codes[i] = rank, codeGet|vlen[rank]
				continue
			}
		}
		size := uint16(sizer.Next())
		st.ranks[i], st.codes[i] = rank, size
		if vlen[rank] == 0 {
			st.codes[i] |= codeInsert
			key := workload.AppendByteKey(kb[:0], workload.ScrambleRank(uint64(rank), salt))
			st.live += uint64(len(key))
		}
		st.live += uint64(size) - uint64(vlen[rank]) // wraps correctly when shrinking
		vlen[rank] = size
	}
	return st
}

func runBucket(opt options, r *report) {
	salt := loadSalt(opt.seed)
	checkLoadSalt(r, opt.seed, salt)
	stream := drawBucketStream(opt.seed, salt, bucketWarmup+bucketPhaseOps)
	phases := opt.seconds * bucketPhasesPerS
	drive(opt, r, "bucket-zipf-churn", phases, phases, phases/4, func(r *report) (timedEnv, time.Duration) {
		start := time.Now()
		t := idramhit.New(idramhit.Config{Slots: bucketInitSlots, Layout: table.LayoutBucket})
		e := &bucketEnv{
			t:      t,
			h:      t.NewHandle(),
			salt:   salt,
			stream: stream,
			keyBuf: make([]byte, 0, batchSize*24), // "user" + at most 20 digits
			valBuf: make([]byte, 0, batchSize*bucketMaxValue),
		}
		e.h.OnByteComplete(e.complete)
		for e.pos < bucketLoad {
			e.gen(batchSize)
			e.submit(batchSize)
			e.h.FlushBytes()
			e.check(batchSize)
		}
		d := time.Since(start)
		if e.bad > 0 {
			r.failf("bucket: %d wrong answers while loading", e.bad)
		}
		if g := t.Bucket().Grows(); g != 5 {
			r.failf("bucket: load went through %d doublings, want 5", g)
		}
		return e, d
	})
}

func (e *bucketEnv) close() { e.t, e.h = nil, nil }

// complete is the byte pipeline's callback: it only stores the answer, so
// the dramhit spans carry no oracle work.
func (e *bucketEnv) complete(c idramhit.ByteCompletion) {
	op := &e.ops[c.ID]
	op.got, op.found = c.Value, c.Found
}

// gen takes the next n ops of the stream and renders their key and value
// bytes into the batch buffers, which stay untouched until the batch is
// flushed.
func (e *bucketEnv) gen(n int) {
	e.keyBuf, e.valBuf = e.keyBuf[:0], e.valBuf[:0]
	for i := 0; i < n; i++ {
		rank, code := uint64(e.stream.ranks[e.pos]), e.stream.codes[e.pos]
		e.pos++
		op := &e.ops[i]
		*op = bucketOp{kind: bGet, key: workload.ScrambleRank(rank, e.salt), vlen: int(code & codeLen)}
		ks := len(e.keyBuf)
		e.keyBuf = workload.AppendByteKey(e.keyBuf, op.key)
		op.kb = e.keyBuf[ks:]
		if code&codeGet != 0 {
			continue
		}
		op.kind = bOverwrite
		if code&codeInsert != 0 {
			op.kind = bInsert
			if rank >= bucketLoad {
				e.inserted++
			}
		}
		vs := len(e.valBuf)
		op.vb = workload.FillValue(e.valBuf[vs:vs], op.key, op.vlen)
		e.valBuf = e.valBuf[:vs+op.vlen]
	}
}

// submit hands the first n rendered ops to the byte pipeline.
func (e *bucketEnv) submit(n int) {
	for i := 0; i < n; i++ {
		op := &e.ops[i]
		if op.kind == bGet {
			e.h.SubmitBytes(table.Get, uint64(i), op.kb, nil)
		} else {
			e.h.SubmitBytes(table.Put, uint64(i), op.kb, op.vb)
		}
	}
}

// check verifies the first n answers: a Get returns exactly
// FillValue(key, len) at the length last written, an overwrite finds its
// key, an insert does not.
func (e *bucketEnv) check(n int) {
	for i := 0; i < n; i++ {
		op := &e.ops[i]
		switch op.kind {
		case bGet:
			e.gets++
			e.scratch = workload.FillValue(e.scratch, op.key, op.vlen)
			if !op.found || !bytes.Equal(op.got, e.scratch) {
				e.bad++
			}
		case bOverwrite:
			if !op.found {
				e.bad++
			}
		default:
			if op.found {
				e.bad++
			}
		}
		op.got = nil
	}
}

func (e *bucketEnv) runBatches(n uint64, watchGrows bool) {
	bt := e.t.Bucket()
	for b := uint64(0); b < n; b++ {
		root := e.tt.begin(spBatch, -1, e.batch)
		sp := e.tt.begin(spGen, root, e.batch)
		e.gen(batchSize)
		e.tt.end(sp)
		var g0 uint64
		if watchGrows {
			g0 = bt.Grows()
		}
		t0 := clock()
		sp = e.tt.begin(spSubmit, root, e.batch)
		e.submit(batchSize)
		e.tt.end(sp)
		sp = e.tt.begin(spFlush, root, e.batch)
		e.h.FlushBytes()
		e.tt.end(sp)
		t1 := clock()
		if watchGrows && bt.Grows() != g0 {
			e.maxStall = max(e.maxStall, t1-t0)
		}
		sp = e.tt.begin(spCheck, root, e.batch)
		e.check(batchSize)
		e.tt.end(sp)
		e.tt.end(root)
		e.lat = append(e.lat, uint32(t1-t0))
		e.batch++
	}
}

func (e *bucketEnv) run(r *report, tr *tracer) *phaseRounds {
	batches := uint64(bucketPhaseOps / batchSize)
	e.runBatches(bucketWarmup/batchSize, false)
	e.bad, e.gets, e.batch = 0, 0, 0
	e.tt = tr.thread(int(batches), 5)
	e.lat = make([]uint32, 0, batches)
	bt := e.t.Bucket()
	before, grows0, lenBefore := e.h.Stats(), bt.Grows(), e.t.Len()
	arena0 := takeArena(bt.Arena())
	inserted0 := e.inserted

	p := &phaseRounds{}
	// One round: the phase's throughput includes its grow.
	timeRounds(p, batches, batchSize, 1, func(n uint64) {
		e.lat = e.lat[:0]
		e.runBatches(n, tr != nil)
	}, func() []uint32 { return e.lat })

	d := statsDelta(e.h.Stats(), before)
	grows := bt.Grows() - grows0
	inserted := e.inserted - inserted0
	r.attempted += p.ops
	r.failed += e.bad
	if e.bad > 0 {
		r.failf("bucket: %d wrong answers", e.bad)
	}
	if d.Gets != e.gets || d.Hits != e.gets || d.Gets+d.Puts != p.ops {
		r.failf("bucket: handle counters disagree with the generated mix: %d gets %d hits %d puts, issued %d gets of %d ops",
			d.Gets, d.Hits, d.Puts, e.gets, p.ops)
	}
	if got, want := e.t.Len(), lenBefore+int(inserted); got != want {
		r.failf("bucket: table holds %d keys after the phase, want %d", got, want)
	}
	if grows == 0 {
		r.failf("bucket: the index did not grow during the timed phase")
	}
	arena1 := takeArena(bt.Arena())
	// The timed phase ends with the stream, so the drawn live-byte total is
	// the table's.
	r.setE2E("space_amp", "ratio", (indexBytes(bt)+float64(arena1.capacity))/float64(e.stream.live))
	if tr == nil {
		return p
	}
	self := tr.selfNS()
	r.setLayer("workload.gen_ns_per_op", "ns/op", float64(self[spGen])/float64(p.ops))
	reportHandleLayers(r, d, p.ops, self[spSubmit], self[spFlush])
	reportBucketIndex(r, e.t, e.maxStall)
	reportArena(r, arena0, arena1, p.ops)
	keys := make([][]byte, 1<<16)
	for i := range keys {
		rank := uint64(e.stream.ranks[bucketLoad+i])
		keys[i] = workload.AppendByteKey(nil, workload.ScrambleRank(rank, e.salt))
	}
	r.setLayer("hashfn.ns_per_key", "ns/key", hashReplayBytes(keys))
	return p
}
