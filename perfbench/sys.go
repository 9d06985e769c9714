package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sysSnap is the process-wide state the per-layer sys and runtime metrics
// are deltas of. It is taken only at phase boundaries (ReadMemStats stops
// the world).
type sysSnap struct {
	syscr, syscw, rchar uint64 // /proc/self/io
	utime, stime        time.Duration
	totalAlloc, numGC   uint64
	heapInuse           uint64
	gcCPU, totalCPU     float64 // runtime/metrics cpu-seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap() sysSnap {
	var s sysSnap
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ": ")
			if !ok {
				continue
			}
			n, _ := strconv.ParseUint(v, 10, 64)
			switch k {
			case "syscr":
				s.syscr = n
			case "syscw":
				s.syscw = n
			case "rchar":
				s.rchar = n
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.utime = time.Duration(ru.Utime.Nano())
		s.stime = time.Duration(ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC, s.heapInuse = ms.TotalAlloc, uint64(ms.NumGC), ms.HeapInuse
	metrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64()
	s.totalCPU = cpuSamples[1].Value.Float64()
	return s
}

// reportSys writes the sys.* and runtime.* layer metrics for a phase of ops
// operations between snapshots a and b.
func reportSys(r *report, a, b sysSnap, ops uint64) {
	fops := float64(ops)
	r.setLayer("sys.read_calls_per_op", "calls/op", float64(b.syscr-a.syscr)/fops)
	r.setLayer("sys.write_calls_per_op", "calls/op", float64(b.syscw-a.syscw)/fops)
	bytesPerRead := 0.0
	if b.syscr > a.syscr {
		bytesPerRead = float64(b.rchar-a.rchar) / float64(b.syscr-a.syscr)
	}
	r.setLayer("sys.bytes_per_read", "B/call", bytesPerRead)
	cpu := (b.utime - a.utime) + (b.stime - a.stime)
	cpuFrac := 0.0
	if cpu > 0 {
		cpuFrac = float64(b.stime-a.stime) / float64(cpu)
	}
	r.setLayer("sys.cpu_frac", "ratio", cpuFrac)
	r.setLayer("runtime.alloc_bytes_per_op", "B/op", float64(b.totalAlloc-a.totalAlloc)/fops)
	r.setLayer("runtime.gc_cycles", "count", float64(b.numGC-a.numGC))
	gcFrac := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	r.setLayer("runtime.gc_cpu_frac", "ratio", gcFrac)
	r.setLayer("runtime.heap_inuse_mb", "MB", float64(b.heapInuse)/(1<<20))
}
