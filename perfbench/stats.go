package main

import (
	"math/bits"
	"slices"
	"time"
)

// epoch is the zero of clock: monotonic nanoseconds since process start,
// one vDSO clock read each.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []uint32, q float64) uint32 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// phaseRounds accumulates a timed phase that is split into rounds of equal
// operation count. Throughput and latency percentiles are taken per round
// and reported as the median over rounds, so one round disturbed by a
// neighbour on the machine does not move the run's figures.
type phaseRounds struct {
	mops     []float64
	p50, p99 []float64 // microseconds
	ops      uint64
	samples  int
	wall     time.Duration
	// sys brackets the rounds (not the warm-up, oracle read-backs or
	// replays) for the sys.* and runtime.* layer metrics.
	sysBefore, sysAfter sysSnap
}

// add records one round: its completed operations, its wall time, and its
// latency samples in nanoseconds (consumed: the slice is sorted).
func (p *phaseRounds) add(ops uint64, wall time.Duration, lat []uint32) {
	p.mops = append(p.mops, float64(ops)/wall.Seconds()/1e6)
	p.p50 = append(p.p50, float64(quantile(lat, 0.50))/1e3)
	p.p99 = append(p.p99, float64(quantile(lat, 0.99))/1e3)
	p.ops += ops
	p.samples += len(lat)
	p.wall += wall
}

// merge appends o's rounds to p.
func (p *phaseRounds) merge(o *phaseRounds) {
	p.mops = append(p.mops, o.mops...)
	p.p50 = append(p.p50, o.p50...)
	p.p99 = append(p.p99, o.p99...)
	p.ops += o.ops
	p.samples += o.samples
	p.wall += o.wall
}

func (p *phaseRounds) throughput() float64 { return median(p.mops) }

// report writes the phase's end-to-end latency and throughput metrics.
func (p *phaseRounds) report(r *report) {
	r.setE2E("throughput_mops", "Mops/s", p.throughput())
	r.setE2E("p50_us", "us", median(p.p50))
	r.setE2E("p99_us", "us", median(p.p99))
}

// splitRounds divides total into n near-equal parts.
func splitRounds(total uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = total / uint64(n)
	}
	out[n-1] += total % uint64(n)
	return out
}

// rng is splitmix64: a few cycles per draw, so the closed-loop client's
// generation cost stays far below one table operation.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// below returns a uniform draw in [0, n) (Lemire's multiply-shift).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}
