package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// spanName identifies the layer a span times. Spans are recorded by the
// benchmark around its own calls into each layer's public functions; the
// program itself carries no tracing.
type spanName uint8

const (
	spBatch  spanName = iota // root: one batch of the closed loop
	spGen                    // workload: generating the batch's requests
	spSubmit                 // dramhit: Submit / SubmitBytes calls
	spFlush                  // dramhit: Flush / FlushBytes
	spCheck                  // oracle: verifying the batch's answers
	spWrite                  // client: the batch's write syscall
	spRead                   // client: reading and parsing the replies
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"batch", "workload.gen", "dramhit.submit", "dramhit.flush",
	"oracle.check", "client.write", "client.read",
}

// span is one timed interval of one thread. parent indexes the same
// thread's span list (-1 for a root); spans of one batch share batch.
type span struct {
	start, end int64 // clock() nanoseconds
	batch      uint32
	parent     int32
	name       spanName
}

// threadSpans is one load-generating goroutine's span list. All methods
// are no-ops on a nil receiver, which is how untraced phases run the same
// loop without recording.
type threadSpans struct {
	tid   int
	spans []span
}

func (t *threadSpans) begin(name spanName, parent int32, batch uint32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: clock(), batch: batch, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

func (t *threadSpans) end(i int32) {
	if t != nil {
		t.spans[i].end = clock()
	}
}

// tracer owns the span lists of one traced phase.
type tracer struct {
	threads []*threadSpans
}

// thread returns a new span list sized for batches batches of perBatch
// spans, so recording never reallocates inside the timed loop.
func (tr *tracer) thread(batches, perBatch int) *threadSpans {
	if tr == nil {
		return nil
	}
	t := &threadSpans{tid: len(tr.threads) + 1, spans: make([]span, 0, batches*perBatch)}
	tr.threads = append(tr.threads, t)
	return t
}

// selfNS sums each layer's self time over every thread: a span's duration
// minus the part its children cover.
func (tr *tracer) selfNS() [numSpanNames]int64 {
	var out [numSpanNames]int64
	for _, t := range tr.threads {
		self := make([]int64, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.end - s.start
			if s.parent >= 0 {
				self[s.parent] -= s.end - s.start
			}
		}
		for i, s := range t.spans {
			out[s.name] += self[i]
		}
	}
	return out
}

// unaccounted is the share of the phase's thread time that no layer span
// covers: 1 − Σ layer self time / (wall × threads). The root batch span's
// own self time (loop glue between layer calls) counts as unaccounted.
func (tr *tracer) unaccounted(wallNS int64) float64 {
	self := tr.selfNS()
	var layers int64
	for n, v := range self {
		if spanName(n) != spBatch {
			layers += v
		}
	}
	return 1 - float64(layers)/(float64(wallNS)*float64(len(tr.threads)))
}

// maxTraceBatches bounds the batches per thread written to the Chrome
// trace file; self times are always derived from every recorded span.
const maxTraceBatches = 2000

// writeChrome writes the first maxTraceBatches batches of every thread as
// Chrome trace-event JSON (loadable in Perfetto) under dir.
func (tr *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range tr.threads {
		for _, s := range t.spans {
			if s.batch >= maxTraceBatches {
				break
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"batch":%d,"parent":%d}}`,
				spanNames[s.name], t.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.batch, s.parent)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
