// Command perfbench is the repository benchmark: two closed-loop
// workloads over the DRAMHiT table and its network front end, each checked
// by an output oracle, reported end to end (untraced) or layer by layer
// (traced).
//
//	go run . --workload bucket-zipf-churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any oracle or workload-validity
// failure prints the reason on standard error and exits with status 1.
// See METRICS.md for what each metric means and which layer moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured and every check that failed.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string
	e2e       map[string]metric
	layers    map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// failf records a failed oracle or validity check; the run then exits 1.
func (r *report) failf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

// options are the benchmark arguments every workload receives.
type options struct {
	seed    int64
	seconds int
	traced  bool
	out     string
}

var workloads = map[string]func(opt options, r *report){
	"bucket-zipf-churn":   runBucket,
	"resp-zipf-pipelined": runResp,
}

func main() {
	name := flag.String("workload", "", "workload name (bucket-zipf-churn, resp-zipf-pipelined)")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "nominal length of the timed phase; op counts scale with it")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the traced run's Chrome trace")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Pin GOGC so the caller's environment cannot change the collector
	// work a run measures.
	debug.SetGCPercent(100)

	r := newReport()
	run(options{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *outDir}, r)

	metrics := r.e2e
	if *trace == 1 {
		fillLayers(r)
		metrics = r.layers
	}
	printHuman(*name, metrics)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

func printHuman(name string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %-32s %14.6g %s\n", name, k, ms[k].Value, ms[k].Unit)
	}
}
