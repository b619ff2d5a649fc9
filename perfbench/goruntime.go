package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// gcSnap is the process's cumulative GC pause time at one instant.
type gcSnap struct {
	pause time.Duration
	numGC uint32
}

func gcStats() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{pause: time.Duration(ms.PauseTotalNs), numGC: ms.NumGC}
}

// reportSince names and records the GC pause time accumulated since prev.
func (s gcSnap) reportSince(prev gcSnap, b *bench) {
	ms := float64(s.pause-prev.pause) / float64(time.Millisecond)
	b.name("go.gc_pause_ms", ms, "ms", "STW total while traced")
	b.name("go.gc_cycles", float64(s.numGC-prev.numGC), "count", "")
	b.layer("go.gc_pause_ms", ms, "ms")
}

// heapSampler tracks the peak live heap and goroutine count from a
// goroutine that reads runtime/metrics (no stop-the-world) every period.
type heapSampler struct {
	stop, done chan struct{}
	once       sync.Once
	peakBytes  uint64
	goroutines int
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peakBytes = max(h.peakBytes, sample[0].Value.Uint64())
			}
			h.goroutines = max(h.goroutines, runtime.NumGoroutine())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopOnce stops the sampler goroutine and waits for it; repeat calls
// do nothing.
func (h *heapSampler) stopOnce() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}

// finish stops the sampler and records its peaks.
func (h *heapSampler) finish(b *bench) {
	h.stopOnce()
	mb := float64(h.peakBytes) / (1 << 20)
	b.name("go.heap_mb", mb, "MB", "peak live heap objects")
	b.name("go.goroutines", float64(h.goroutines), "count", "peak")
	b.layer("go.heap_mb", mb, "MB")
}
