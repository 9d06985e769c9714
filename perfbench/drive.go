package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

// batchSize is the closed loop's unit of work: every workload submits 64
// requests (or pipelines 32 per connection, for the server) and waits for
// all of them before generating the next batch.
const batchSize = 64

// timedEnv is one set-up instance of a workload, ready for a timed phase.
type timedEnv interface {
	// run executes the warm-up slice and the timed rounds, checks every
	// answer, and — when tr is non-nil — records spans and reports the
	// workload's per-layer metrics.
	run(r *report, tr *tracer) *phaseRounds
	close()
}

// drive sets a workload up `setups` times and reports setup_s as the
// median. The timed phase runs on each of the last `phases` set-ups — a
// fresh table and the same op stream every time — and the end-to-end
// figures are medians over all their rounds, so one run samples the
// machine over several phases. A traced run traces `tracedPhases` of them:
// every second timed phase counting back from the last, so traced and
// untraced phases see the same machine. The untraced ones are the baseline
// for trace.overhead_frac; the per-layer metrics come from the last phase.
// Each instance is torn down before the next is built, so at most one
// table is resident.
func drive(opt options, r *report, name string, setups, phases, tracedPhases int, setup func(r *report) (timedEnv, time.Duration)) {
	var times []float64
	base, traced, last := &phaseRounds{}, &phaseRounds{}, &phaseRounds{}
	var tr *tracer
	for i := 0; i < setups; i++ {
		e, d := setup(r)
		times = append(times, d.Seconds())
		switch back := setups - 1 - i; {
		case back >= phases:
			// Set-up only: timed for setup_s.
		case opt.traced && back%2 == 0 && back/2 < tracedPhases:
			tr = &tracer{}
			last = e.run(r, tr)
			reportSys(r, last.sysBefore, last.sysAfter, last.ops)
			traced.merge(last)
		default:
			base.merge(e.run(r, nil))
		}
		e.close()
		runtime.GC()
	}
	r.setE2E("setup_s", "s", median(times))
	base.report(r)
	okRatio := 1.0
	if r.attempted > 0 {
		okRatio = 1 - float64(r.failed)/float64(r.attempted)
	}
	r.setE2E("ok_ratio", "ratio", okRatio)
	fmt.Printf("%s: setup_s samples %.3f; %d timed ops in rounds of %.3f Mops/s, %d latency samples\n",
		name, times, base.ops, base.mops, base.samples)
	if tr == nil {
		return
	}
	r.setLayer("trace.overhead_frac", "ratio", 1-traced.throughput()/base.throughput())
	r.setLayer("budget.unaccounted_frac", "ratio", tr.unaccounted(int64(last.wall)))
	if path, err := tr.writeChrome(opt.out, name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: chrome trace not written:", err)
	} else {
		fmt.Printf("%s: chrome trace of the first %d batches per thread in %s\n", name, maxTraceBatches, path)
	}
}

// timeRounds splits units of work into rounds. For each round, run does
// its share of units on every load-generating goroutine and is timed;
// samples then returns the round's latency samples. A unit is opsPerUnit
// operations summed over the goroutines.
func timeRounds(p *phaseRounds, units, opsPerUnit uint64, rounds int, run func(units uint64), samples func() []uint32) {
	p.sysBefore = takeSnap()
	for _, n := range splitRounds(units, rounds) {
		start := time.Now()
		run(n)
		wall := time.Since(start)
		p.add(n*opsPerUnit, wall, samples())
	}
	p.sysAfter = takeSnap()
}

// medianNS times fn reps times and returns the median duration in
// nanoseconds; the parser and hash replays use it.
func medianNS(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = float64(time.Since(start))
	}
	return median(ts)
}

// loadSalt is the salt workload.UniqueKeys (and so ycsb.LoadKeys) derives
// from seed: rank i of the load phase is workload.ScrambleRank(i, salt).
// Every client stream draws ranks and maps them with this same salt, which
// is what keeps reads on loaded keys.
func loadSalt(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() | 1 }

// checkLoadSalt confirms the rank→key mapping the clients use names exactly
// the keys ycsb.LoadKeys loads.
func checkLoadSalt(r *report, seed int64, salt uint64) {
	for i, k := range ycsb.LoadKeys(1024, seed) {
		if workload.ScrambleRank(uint64(i), salt) != k {
			r.failf("client key for rank %d differs from ycsb.LoadKeys: streams do not share the load salt", i)
			return
		}
	}
}
