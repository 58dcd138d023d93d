package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// hostRef times a fixed CPU-only loop that calls no program code: an
// integer hash chain plus a float recurrence over a 128 KiB table, so it
// touches the core, the FPU and L1/L2 the way the kernels do. It is run
// before and after every measured phase; comparing it between two runs tells
// a host slow spell from a program change. No metric is rescaled by it.
func hostRef() time.Duration {
	const n = 1 << 14
	table := make([]float64, n)
	for i := range table {
		table[i] = float64(i%97) / 97
	}
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (n - 1)
		acc = acc*0.999 + table[j]
		table[j] = acc - float64(int64(acc))
	}
	hostSink = acc
	return time.Since(start)
}

// hostSink keeps the reference loop's result alive.
var hostSink float64

// hostRefs runs the reference loop three times and returns the samples in
// milliseconds.
func hostRefs() samples {
	var s samples
	for i := 0; i < 3; i++ {
		s = append(s, millis(hostRef()))
	}
	return s
}

// heapSampler samples the Go live heap (bytes of heap objects marked live
// by the last GC) every 20 ms while it runs. When no GC has run for a
// second it forces one, so a phase that allocates little (SGD epochs)
// reports the heap it keeps live rather than whatever the last natural GC,
// perhaps mid-way through reading the inputs, saw: without it train-flickr's
// heap_mb moved between 5.7 and 7.5 MiB from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mib  samples // owned by loop until done is closed
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	forceGCAfter   = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go h.loop()
	return h
}

func (h *heapSampler) loop() {
	defer close(h.done)
	sample := []metrics.Sample{{Name: liveHeapMetric}, {Name: gcCyclesMetric}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var cycles uint64
	lastGC := time.Now()
	for {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c != cycles {
			cycles, lastGC = c, time.Now()
		} else if time.Since(lastGC) >= forceGCAfter {
			runtime.GC()
			metrics.Read(sample)
			cycles, lastGC = sample[1].Value.Uint64(), time.Now()
		}
		h.mib = append(h.mib, float64(sample[0].Value.Uint64())/(1<<20))
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
	}
}

// finish stops the sampler and returns its readings in MiB.
func (h *heapSampler) finish() samples {
	close(h.stop)
	<-h.done
	return h.mib
}

// addHeap reports heap_mb, the median live heap over the measured phase (a
// time-weighted typical footprint). The peak is printed beside it: which GC
// cycle happens to see a transient peak varies from run to run by up to a
// quarter on train-flickr, too much for a bounded metric.
func addHeap(rep *report, h *heapSampler) {
	mib := h.finish()
	rep.addQuantile("heap_mb", "MiB", mib, 0.5)
	if len(mib) > 0 {
		rep.note("peak live heap %.2f MiB over %d readings", mib.quantile(1), len(mib))
	}
}
