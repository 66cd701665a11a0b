package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks the peak of the heap in use (live and not yet
// swept objects) while it runs, sampling runtime/metrics.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is fine enough to see the heap peak of a 50 ms
// analysis pass, coarse enough to cost well under 1% of a CPU.
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() float64 {
	h.sample()
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak)
}

// runtimeCounters are the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
}

func readRuntime() runtimeCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeCounters{allocBytes: m.TotalAlloc, gcCycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// allocBytes reads only the allocation counter, without stopping
// the world, for per-pass allocation deltas.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
