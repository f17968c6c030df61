package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// heapSampler polls runtime.ReadMemStats in the background recording peak
// HeapAlloc. ReadMemStats briefly stops the world, so the period is kept
// coarse relative to the merges it profiles.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := h.peak.Load()
			if ms.HeapAlloc <= old || h.peak.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap seen.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}
