package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts a copy, so callers keep their order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// sliceLen is the part of the window each end-to-end latency quantile
// is taken over; a run reports the median of its slices' quantiles. A
// host stall delays every request scheduled during it and the backlog
// it leaves, so it moves the quantiles of the slices it falls in, and
// the median discards those while the stalls cover fewer than half the
// slices. A slowdown of the program's own moves every slice. The first
// slice is left out as the warm-up of a cluster built just before it.
// The tail.* diagnostics are taken over the whole window.
const sliceLen = 3 * time.Second

// slicedQuantile is the median over sliceLen slices of the window, by
// the offset at[i] of each request's scheduled instant from the first,
// of the q-quantile of the xs scheduled in each slice. It leaves out
// the first slice unless that is the only one.
func slicedQuantile(at []time.Duration, xs []float64, q float64) float64 {
	var slices [][]float64
	for i, x := range xs {
		k := int(at[i] / sliceLen)
		for len(slices) <= k {
			slices = append(slices, nil)
		}
		slices[k] = append(slices[k], x)
	}
	if len(slices) > 1 {
		slices = slices[1:]
	}
	var per []float64
	for _, s := range slices {
		if len(s) > 0 {
			per = append(per, quantile(s, q))
		}
	}
	return quantile(per, 0.5)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of process-wide resource counters; two of them
// bracket a measured window.
type usage struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds, runtime estimate
	totalCPU   float64 // seconds, runtime estimate
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := usage{wall: time.Now(), cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[2].Value.Float64()
	}
	return u
}

// window is what happened between two usage snapshots.
type window struct {
	wall     time.Duration
	cpu      time.Duration
	allocKiB float64
	gcFrac   float64
}

func since(start usage) window {
	end := readUsage()
	return window{
		wall:     end.wall.Sub(start.wall),
		cpu:      end.cpu - start.cpu,
		allocKiB: float64(end.allocBytes-start.allocBytes) / 1024,
		gcFrac:   ratio(end.gcCPU-start.gcCPU, end.totalCPU-start.totalCPU),
	}
}

// liveHeapMiB is HeapAlloc after two forced collections: the memory the
// still-running nodes actually hold.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
