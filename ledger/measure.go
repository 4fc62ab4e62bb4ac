package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rt reads the runtime counters the ledger reports.
type rt struct {
	allocBytes   float64 // cumulative heap bytes allocated
	allocObjects float64 // cumulative heap objects allocated
	gcCycles     float64
	gcCPU        float64 // estimated GC CPU seconds
	liveHeap     float64 // heap marked live by the last GC
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRT() rt {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rt{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), gcCPU: v(3), liveHeap: v(4)}
}

// cost is what one crawl took: wall seconds, process CPU seconds and heap
// bytes allocated.
type cost struct{ wall, cpu, alloc float64 }

// meter measures a cost from when it was started.
type meter struct {
	t0 time.Time
	c0 float64
	r0 rt
}

func startMeter() meter { return meter{r0: readRT(), c0: cpuSeconds(), t0: time.Now()} }

func (m meter) stop() cost {
	wall := time.Since(m.t0).Seconds()
	c1, r1 := cpuSeconds(), readRT()
	return cost{wall: wall, cpu: c1 - m.c0, alloc: r1.allocBytes - m.r0.allocBytes}
}

// heapPeak samples the live heap every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := readRT().liveHeap
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- math.Max(peak, readRT().liveHeap)
				return
			case <-t.C:
				peak = math.Max(peak, readRT().liveHeap)
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in bytes.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return <-h.done
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }
