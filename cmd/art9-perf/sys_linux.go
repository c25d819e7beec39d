package main

import (
	"bytes"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// offHeap returns n zero values of T in an anonymous mapping outside the
// Go heap, and a func that unmaps it. The traced run's span buffer lives
// there: on the heap its size would raise the collector's heap goal and
// let the system under test skip collections it pays for on its own. T
// holds no pointers, so the collector never needs to see it.
func offHeap[T any](n int) (buf []T, release func()) {
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n), func() {}
	}
	// Unmapping a region this process mapped cannot fail.
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n), func() { _ = syscall.Munmap(mem) }
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPUTime is the CPU time the calling OS thread has used, or 0 when
// the clock cannot be read.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stealReader reads the time the hypervisor kept this machine's CPUs from
// running while they had work: the steal column of /proc/stat. It reads
// into a buffer of its own, so sampling allocates nothing.
type stealReader struct {
	f   *os.File
	buf [256]byte
}

func openSteal() *stealReader {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	return &stealReader{f: f}
}

// read returns the steal time so far in CPU-seconds, summed over CPUs, or
// 0 when it is unknown.
func (r *stealReader) read() float64 {
	if r == nil {
		return 0
	}
	n, _ := r.f.ReadAt(r.buf[:], 0)
	return parseSteal(r.buf[:n])
}

// parseSteal reads the steal time, in CPU-seconds, from the first line of
// /proc/stat: "cpu  user nice system idle iowait irq softirq steal ...",
// in clock ticks of 1/100 s. It returns 0 when the line has no such field.
func parseSteal(stat []byte) float64 {
	if i := bytes.IndexByte(stat, '\n'); i >= 0 {
		stat = stat[:i]
	}
	field, ticks, space := -1, uint64(0), true
	for _, c := range stat {
		if c == ' ' {
			space = true
			continue
		}
		if space {
			field++
			space = false
		}
		if field == 8 {
			if c < '0' || c > '9' {
				return 0
			}
			ticks = ticks*10 + uint64(c-'0')
		}
	}
	if field < 8 {
		return 0
	}
	return float64(ticks) / 100
}

func (r *stealReader) close() {
	if r != nil {
		r.f.Close()
	}
}
