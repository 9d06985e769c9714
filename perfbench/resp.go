package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"dramhit/internal/kvserver"
	"dramhit/internal/obs"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

// resp-zipf-pipelined: the kvserver core serving RESP on loopback inside
// the benchmark process, driven by two connections that each pipeline 32
// requests and wait for the replies. Table work per request is one cached
// bucket line, so the request path — syscalls, parsing, reply encoding —
// sets the pace.
//
// The 32 Ki loaded records (~3 MB) and the index lines they touch stay in
// the range the reference VM serves from cache (~50 ns at 4 MiB). SETs
// append to the arena, but those records are written once and read back
// only while hot. A set-up is short, so a run sets up many times for
// setup_s.
const (
	respSlots     = 1 << 20 // cmd/dramhit-server's default
	respLoad      = 1 << 15
	respConns     = 2
	respPipeline  = 32
	respValue     = 64
	respSetups    = 15
	respPhases    = 3 // timed phases, on the last set-ups
	respRounds    = 9
	respOpsPerSec = 1_000_000
	respWarmup    = 1 << 14 // untimed requests per connection
)

type respEnv struct {
	opt     options
	srv     *kvserver.Server
	reg     *obs.Registry // non-nil only for the traced phase's server
	salt    uint64
	clients []*respClient
}

// respClient is one connection and its closed-loop generator.
type respClient struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	// stream is the connection's pre-drawn request sequence (see
	// drawRespStream); pos is the next request to send.
	stream []uint32
	pos    int
	salt   uint64
	keys   [respPipeline]uint64
	isSet  [respPipeline]bool
	vals   []byte // the batch's GET payloads, respValue bytes each
	want   []byte
	lat    []uint32
	tt     *threadSpans
	batch  uint32
	gets   uint64
	bad    uint64 // wrong answers: a miss, a wrong value, a wrong reply type
	errs   uint64 // -ERR replies
	err    error  // I/O or framing failure; ends the client's phase
}

// respSetBit marks a SET in a pre-drawn request stream; the low bits are
// the key's rank.
const respSetBit = 1 << 31

// drawRespStream draws connection i's requests: 90% GET and 10% SET,
// zipf(0.99) ranks over the loaded keys. Drawing zipf ranks costs about as
// much as parsing a request, so it happens before the timer starts. The
// same seed and connection draw the same stream.
func drawRespStream(seed int64, i int, n uint64) []uint32 {
	zipf := workload.NewZipf(rand.New(rand.NewSource(seed+int64(i)+1)), respLoad, ycsb.Theta)
	g := newRNG(seed, uint64(100+i))
	st := make([]uint32, n)
	for j := range st {
		st[j] = uint32(zipf.Next())
		if g.next()%10 == 0 {
			st[j] |= respSetBit
		}
	}
	return st
}

// respBatches is the number of timed batches per connection.
func respBatches(opt options) uint64 {
	return uint64(opt.seconds) * respOpsPerSec / respPipeline / respConns
}

func runResp(opt options, r *report) {
	salt := loadSalt(opt.seed)
	checkLoadSalt(r, opt.seed, salt)
	var streams [respConns][]uint32
	for i := range streams {
		streams[i] = drawRespStream(opt.seed, i, respWarmup+respBatches(opt)*respPipeline)
	}
	n := 0
	drive(opt, r, "resp-zipf-pipelined", respSetups, respPhases, 1, func(r *report) (timedEnv, time.Duration) {
		n++
		// Only the traced phase's server keeps its own latency registry: the
		// server stamps every request when one is attached.
		var reg *obs.Registry
		if opt.traced && n == respSetups {
			reg = obs.NewWith(0, 1)
		}
		start := time.Now()
		e, err := newRespEnv(opt, salt, streams, reg)
		d := time.Since(start)
		if err != nil {
			// Nothing can be timed without a loaded server.
			e.close()
			fmt.Fprintln(os.Stderr, "perfbench: FAIL: resp set-up:", err)
			os.Exit(1)
		}
		return e, d
	})
}

// newRespEnv starts a server, dials both connections, and loads respLoad
// keys through them, half each, 32 SETs per write.
func newRespEnv(opt options, salt uint64, streams [respConns][]uint32, reg *obs.Registry) (*respEnv, error) {
	srv, err := kvserver.New(kvserver.Config{RespAddr: "127.0.0.1:0", Slots: respSlots, Obs: reg})
	if err != nil {
		return &respEnv{}, err
	}
	e := &respEnv{opt: opt, srv: srv, reg: reg, salt: salt}
	for i := 0; i < respConns; i++ {
		c, err := net.Dial("tcp", srv.RespAddr())
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, &respClient{
			c:      c,
			br:     bufio.NewReaderSize(c, 64<<10),
			stream: streams[i],
			salt:   salt,
			vals:   make([]byte, respPipeline*respValue),
		})
	}
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(c *respClient, lo, hi uint64) {
			defer wg.Done()
			c.load(lo, hi)
		}(c, uint64(i)*respLoad/respConns, uint64(i+1)*respLoad/respConns)
	}
	wg.Wait()
	for _, c := range e.clients {
		if c.err != nil || c.bad+c.errs > 0 {
			return e, fmt.Errorf("load: %v (%d wrong, %d -ERR replies)", c.err, c.bad, c.errs)
		}
	}
	return e, nil
}

func (e *respEnv) close() {
	for _, c := range e.clients {
		c.c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
}

func (c *respClient) load(lo, hi uint64) {
	for rank := lo; rank < hi && c.err == nil; {
		c.wbuf = c.wbuf[:0]
		n := 0
		for ; n < respPipeline && rank < hi; n, rank = n+1, rank+1 {
			c.appendSet(n, workload.ScrambleRank(rank, c.salt))
		}
		c.roundTrip(n, -1)
	}
}

// appendSet encodes SET key FillValue(key, 64) as request i of the batch.
func (c *respClient) appendSet(i int, k uint64) {
	c.keys[i], c.isSet[i] = k, true
	c.wbuf = append(c.wbuf, "*3\r\n$3\r\nSET\r\n"...)
	c.wbuf = appendKey(c.wbuf, k)
	c.want = workload.FillValue(c.want, k, respValue)
	c.wbuf = append(c.wbuf, "$64\r\n"...)
	c.wbuf = append(c.wbuf, c.want...)
	c.wbuf = append(c.wbuf, '\r', '\n')
}

func (c *respClient) appendGet(i int, k uint64) {
	c.keys[i], c.isSet[i] = k, false
	c.wbuf = append(c.wbuf, "*2\r\n$3\r\nGET\r\n"...)
	c.wbuf = appendKey(c.wbuf, k)
}

// appendKey encodes the byte key of k as a RESP bulk string.
func appendKey(b []byte, k uint64) []byte {
	var kb [24]byte
	key := workload.AppendByteKey(kb[:0], k)
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(key)), 10)
	b = append(b, '\r', '\n')
	b = append(b, key...)
	return append(b, '\r', '\n')
}

// gen encodes the next batch of the connection's stream.
func (c *respClient) gen() {
	c.wbuf = c.wbuf[:0]
	for i := 0; i < respPipeline; i++ {
		x := c.stream[c.pos]
		c.pos++
		k := workload.ScrambleRank(uint64(x&^respSetBit), c.salt)
		if x&respSetBit != 0 {
			c.appendSet(i, k)
		} else {
			c.appendGet(i, k)
		}
	}
}

// roundTrip writes the batch in one write and reads its n replies,
// stamping each request's latency when its reply has been parsed.
func (c *respClient) roundTrip(n int, root int32) {
	t0 := clock()
	sp := c.tt.begin(spWrite, root, c.batch)
	_, err := c.c.Write(c.wbuf)
	c.tt.end(sp)
	if err != nil {
		c.err = err
		return
	}
	sp = c.tt.begin(spRead, root, c.batch)
	defer c.tt.end(sp)
	for i := 0; i < n; i++ {
		if err := c.readReply(i); err != nil {
			c.err = err
			return
		}
		if c.lat != nil { // nil while loading
			c.lat = append(c.lat, uint32(clock()-t0))
		}
	}
}

var errFraming = errors.New("malformed reply")

func (c *respClient) readReply(i int) error {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 3 {
		return errFraming
	}
	switch line[0] {
	case '+':
		if !c.isSet[i] || !bytes.Equal(line, []byte("+OK\r\n")) {
			c.bad++
		}
	case '-':
		c.errs++
	case '$':
		if c.isSet[i] {
			c.bad++
		}
		if bytes.Equal(line, []byte("$-1\r\n")) {
			c.bad++ // every GET is of a loaded key
			return nil
		}
		if !bytes.Equal(line, []byte("$64\r\n")) {
			return errFraming
		}
		v := c.vals[i*respValue : (i+1)*respValue]
		if _, err := io.ReadFull(c.br, v); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	default:
		return errFraming
	}
	return nil
}

// check verifies every GET payload of the batch against FillValue.
func (c *respClient) check() {
	for i := 0; i < respPipeline; i++ {
		if c.isSet[i] {
			continue
		}
		c.gets++
		c.want = workload.FillValue(c.want, c.keys[i], respValue)
		if !bytes.Equal(c.vals[i*respValue:(i+1)*respValue], c.want) {
			c.bad++
		}
	}
}

func (c *respClient) runBatches(n uint64) {
	for b := uint64(0); b < n && c.err == nil; b++ {
		root := c.tt.begin(spBatch, -1, c.batch)
		sp := c.tt.begin(spGen, root, c.batch)
		c.gen()
		c.tt.end(sp)
		c.roundTrip(respPipeline, root)
		sp = c.tt.begin(spCheck, root, c.batch)
		c.check()
		c.tt.end(sp)
		c.tt.end(root)
		c.batch++
	}
}

func (e *respEnv) run(r *report, tr *tracer) *phaseRounds {
	batches := respBatches(e.opt)
	bt := e.srv.Table().Bucket()
	for _, c := range e.clients {
		c.lat = make([]uint32, 0, batches*respPipeline)
		c.runBatches(respWarmup / respPipeline)
		c.gets, c.bad, c.errs, c.batch = 0, 0, 0, 0
		c.tt = tr.thread(int(batches), 5)
	}
	if e.reg != nil {
		for _, w := range e.reg.Workers() {
			for i := range w.Op {
				w.Op[i].Reset()
			}
		}
	}
	arena0 := takeArena(bt.Arena())

	p := &phaseRounds{}
	timeRounds(p, batches, respPipeline*respConns, respRounds, func(n uint64) {
		var wg sync.WaitGroup
		for _, c := range e.clients {
			c.lat = c.lat[:0]
			wg.Add(1)
			go func(c *respClient) {
				defer wg.Done()
				c.runBatches(n)
			}(c)
		}
		wg.Wait()
	}, func() []uint32 {
		var lat []uint32
		for _, c := range e.clients {
			lat = append(lat, c.lat...)
		}
		return lat
	})

	var gets, wantGets, bad, errs uint64
	for i, c := range e.clients {
		if c.err != nil {
			r.failf("resp: connection %d: %v", i, c.err)
		}
		if c.pos != len(c.stream) {
			r.failf("resp: connection %d sent %d of %d requests", i, c.pos, len(c.stream))
		}
		for _, x := range c.stream[respWarmup:] {
			if x&respSetBit == 0 {
				wantGets++
			}
		}
		gets += c.gets
		bad += c.bad
		errs += c.errs
	}
	r.attempted += p.ops
	r.failed += bad + errs
	if bad+errs > 0 {
		r.failf("resp: %d wrong answers and %d -ERR replies", bad, errs)
	}
	if gets != wantGets {
		r.failf("resp: %d GET replies checked, the stream holds %d", gets, wantGets)
	}
	e.checkConns(r)
	var live uint64
	var kb [24]byte
	for rank := uint64(0); rank < respLoad; rank++ {
		live += uint64(len(workload.AppendByteKey(kb[:0], workload.ScrambleRank(rank, e.salt)))) + respValue
	}
	arena1 := takeArena(bt.Arena())
	r.setE2E("space_amp", "ratio", (indexBytes(bt)+float64(arena1.capacity))/float64(live))
	if tr == nil {
		return p
	}
	self := tr.selfNS()
	fops := float64(p.ops)
	fbatches := fops / respPipeline
	r.setLayer("workload.gen_ns_per_op", "ns/op", float64(self[spGen])/fops)
	r.setLayer("client.write_ns_per_batch", "ns/batch", float64(self[spWrite])/fbatches)
	r.setLayer("client.read_ns_per_batch", "ns/batch", float64(self[spRead])/fbatches)
	var h obs.Histogram
	for _, w := range e.reg.Workers() {
		for i := range w.Op {
			h.Merge(&w.Op[i])
		}
	}
	r.setLayer("kvserver.server_p50_us", "us", h.Quantile(0.50)/1e3)
	r.setLayer("kvserver.server_p99_us", "us", h.Quantile(0.99)/1e3)
	if h.Count() != p.ops {
		r.failf("resp: server recorded %d requests in the timed phase, clients sent %d", h.Count(), p.ops)
	}
	// The phase only reads and overwrites loaded keys, so the index cannot
	// grow in it: there is no stall to watch.
	reportBucketIndex(r, e.srv.Table(), 0)
	reportArena(r, arena0, arena1, p.ops)
	replayParsers(r, e.clients[0].stream, e.salt)
	keys := make([][]byte, 1<<16)
	for i := range keys {
		rank := uint64(e.clients[0].stream[i] &^ respSetBit)
		keys[i] = workload.AppendByteKey(nil, workload.ScrambleRank(rank, e.salt))
	}
	r.setLayer("hashfn.ns_per_key", "ns/key", hashReplayBytes(keys))
	return p
}

// checkConns confirms the phase ran on exactly the two connections dialled
// at set-up: each still answers PING, and — when the server keeps a
// registry — the server counts two RESP connections, both open.
func (e *respEnv) checkConns(r *report) {
	for i, c := range e.clients {
		if c.err != nil {
			continue
		}
		if _, err := c.c.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
			r.failf("resp: connection %d lost: %v", i, err)
			continue
		}
		line, err := c.br.ReadSlice('\n')
		if err != nil || !bytes.Equal(line, []byte("+PONG\r\n")) {
			r.failf("resp: connection %d answered PING with %q (%v)", i, line, err)
		}
	}
	if e.reg == nil {
		return
	}
	for _, src := range e.reg.Sources() {
		if src.Name != "server" {
			continue
		}
		m := src.Collect()
		if m["conns_resp_open"] != respConns || m["conns_resp_total"] != respConns {
			r.failf("resp: server saw %v RESP connections, %v open; want exactly %d, no redials",
				m["conns_resp_total"], m["conns_resp_open"], respConns)
		}
	}
}
