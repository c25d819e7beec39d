//go:build !linux

package main

import "time"

// offHeap allocates on the heap where the benchmark does not map memory
// itself. The span buffer then raises the collector's heap goal, so traced
// runs collect less often than the system would alone.
func offHeap[T any](n int) (buf []T, release func()) {
	return make([]T, n), func() {}
}

// threadCPUTime is unknown here: the host sampler records nothing and the
// wall-clock metrics are reported as measured.
func threadCPUTime() time.Duration { return 0 }

// stealReader reads nothing here: steal time is taken as 0.
type stealReader struct{}

func openSteal() *stealReader      { return nil }
func (*stealReader) read() float64 { return 0 }
func (*stealReader) close()        {}
