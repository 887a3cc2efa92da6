package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// counters is a CPU and allocation reading; sub gives the cost between
// two readings.
type counters struct {
	cpu     time.Duration
	mallocs uint64
}

func readCounters() counters { return counters{cpuTime(), mallocs()} }

func (c counters) sub(prev counters) counters {
	return counters{c.cpu - prev.cpu, c.mallocs - prev.mallocs}
}

// heapSampler tracks the peak of HeapInuse (live plus fragmented heap
// spans) through runtime/metrics, which reads without stopping the world.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// peakMB stops sampling and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	h.done()
	return float64(h.peak.Load()) / (1 << 20)
}

// done stops sampling; it is safe to call more than once.
func (h *heapSampler) done() {
	h.once.Do(func() {
		close(h.stop)
		h.wg.Wait()
	})
}
