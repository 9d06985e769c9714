package main

import (
	"bytes"
	"strconv"

	"dramhit/internal/mctext"
	"dramhit/internal/resp"
	"dramhit/internal/workload"
)

// replayRequests is the length of the captured request stream.
const replayRequests = 1 << 16

// replayParsers measures the protocol codecs from memory, off the socket:
// the seeded request stream of the first connection is captured once, then
// timed through resp.Reader.ReadCommand, the replies the server would send
// are timed through resp.Append*, and the same operations re-encoded as
// memcached text are timed through mctext.Reader.ReadRequest. Every replay
// must parse back exactly the operations that were encoded.
func replayParsers(r *report, stream []uint32, salt uint64) {
	c := &respClient{stream: stream[:replayRequests], salt: salt}
	var respStream, mcStream []byte
	keys := make([]uint64, 0, replayRequests)
	isSet := make([]bool, 0, replayRequests)
	for len(keys) < replayRequests {
		c.gen()
		respStream = append(respStream, c.wbuf...)
		for i := 0; i < respPipeline; i++ {
			keys = append(keys, c.keys[i])
			isSet = append(isSet, c.isSet[i])
			mcStream = appendMc(mcStream, c.keys[i], c.isSet[i])
		}
	}
	n := float64(len(keys))

	parsed := 0
	ns := medianNS(5, func() {
		rd := resp.NewReader(bytes.NewReader(respStream))
		parsed = 0
		for {
			cmd, err := rd.ReadCommand()
			if err != nil {
				break
			}
			if len(cmd.Args) != 2+boolInt(isSet[parsed]) {
				break
			}
			if parsed++; parsed%respPipeline == 0 {
				rd.Release()
			}
		}
	})
	if parsed != len(keys) {
		r.failf("resp replay parsed %d of %d commands", parsed, len(keys))
	}
	r.setLayer("resp.parse_ns_per_req", "ns/req", ns/n)

	value := make([]byte, respValue)
	var out []byte
	ns = medianNS(5, func() {
		for i, set := range isSet {
			if i%respPipeline == 0 {
				out = out[:0]
			}
			if set {
				out = resp.AppendSimple(out, "OK")
			} else {
				out = resp.AppendBulk(out, value)
			}
		}
	})
	r.setLayer("resp.encode_ns_per_reply", "ns/reply", ns/n)

	ns = medianNS(5, func() {
		rd := mctext.NewReader(bytes.NewReader(mcStream))
		parsed = 0
		for {
			req, err := rd.ReadRequest()
			if err != nil {
				break
			}
			if (req.Verb == mctext.Set) != isSet[parsed] {
				break
			}
			if parsed++; parsed%respPipeline == 0 {
				rd.Release()
			}
		}
	})
	if parsed != len(keys) {
		r.failf("memcached replay parsed %d of %d requests", parsed, len(keys))
	}
	r.setLayer("mctext.parse_ns_per_req", "ns/req", ns/n)
}

// appendMc encodes one operation of the stream as a memcached text request.
func appendMc(b []byte, k uint64, set bool) []byte {
	if !set {
		b = append(b, "get "...)
		b = workload.AppendByteKey(b, k)
		return append(b, '\r', '\n')
	}
	b = append(b, "set "...)
	b = workload.AppendByteKey(b, k)
	b = append(b, " 0 0 "...)
	b = strconv.AppendInt(b, respValue, 10)
	b = append(b, '\r', '\n')
	var v [respValue]byte
	b = append(b, workload.FillValue(v[:0], k, respValue)...)
	return append(b, '\r', '\n')
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
