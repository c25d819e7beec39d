package main

import (
	"runtime"
	"time"
)

// The wall-clock metrics are reported in reference-host time. The machine
// the benchmark runs on is a share of a host whose speed moves under it: on
// the 2-vCPU virtual machine the benchmark was built on, a fixed compute
// kernel took 11.7 ms or 14.8 ms from one quarter second to the next, and
// raw wall-clock throughput moved by a quarter between runs of the same
// code. So a sampler times a fixed reference kernel all through a measured
// phase, and each window's wall-clock values are rescaled by how fast the
// host ran the kernel in that window, against refKernelTime.
//
// The kernel is timed in the CPU time of its own OS thread, which leaves
// out the time the thread waits for a CPU: the goroutines of the system
// under test and its collector do not slow the kernel down, only the host
// does. The share of time the hypervisor stole from the machine's CPUs is
// taken out as well.

const (
	// refKernelSteps is the reference kernel's length, and refKernelTime
	// the thread CPU time it takes on an unloaded host of the reference
	// machine.
	refKernelSteps = 100_000
	refKernelTime  = 200 * time.Microsecond
	// hostEvery is the sampling period: the kernel takes about 2% of one
	// CPU.
	hostEvery = 10 * time.Millisecond
)

// refSink keeps the reference kernel's result alive.
var refSink uint64

// refKernel is a fixed register-machine interpreter loop, the same kind of
// work as the simulators under test, owned by the benchmark so no change
// to the system under test can change it.
func refKernel(steps int) uint64 {
	var r [9]uint64
	r[1] = 1
	code := [8]uint8{1, 2, 3, 4, 5, 6, 7, 0}
	pc := 0
	for i := 0; i < steps; i++ {
		op := code[pc]
		pc = (pc + 1) & 7
		switch op {
		case 1:
			r[2] += r[1]
		case 2:
			r[3] ^= r[2] << 1
		case 3:
			if r[3]&1 == 0 {
				r[4]++
			}
		case 4:
			r[5] = r[4]*3 + r[3]
		case 5:
			r[6] += r[5] >> 2
		case 6:
			r[7] = r[6] ^ r[2]
		case 7:
			r[1] = r[1]*6364136223846793005 + 1
		default:
			r[8] += r[7]
		}
	}
	return r[8]
}

// hostSample is one timed run of the reference kernel.
type hostSample struct {
	at time.Time
	// speed is refKernelTime over the run's thread CPU time: 1 on the
	// reference host, below 1 on a slower one.
	speed float64
	// steal is the machine's steal time so far, in CPU-seconds.
	steal float64
}

// hostSampler times the reference kernel every hostEvery until finished.
type hostSampler struct {
	stop chan struct{}
	done chan []hostSample
}

func sampleHost() *hostSampler {
	s := &hostSampler{stop: make(chan struct{}), done: make(chan []hostSample, 1)}
	go func() {
		// Thread CPU time is only the kernel's own while the goroutine
		// keeps its thread.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		st := openSteal()
		defer st.close()
		out := make([]hostSample, 0, 1<<13)
		t := time.NewTicker(hostEvery)
		defer t.Stop()
		for {
			c0 := threadCPUTime()
			refSink += refKernel(refKernelSteps)
			if cpu := threadCPUTime() - c0; c0 > 0 && cpu > 0 {
				out = append(out, hostSample{at: time.Now(), speed: float64(refKernelTime) / float64(cpu), steal: st.read()})
			}
			select {
			case <-s.stop:
				s.done <- out
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *hostSampler) finish() []hostSample {
	close(s.stop)
	return <-s.done
}

// effective returns each sample's speed times the share of the machine's
// CPU time the hypervisor left it since the sample before.
func effective(ss []hostSample) []float64 {
	cpus := float64(runtime.NumCPU())
	f := make([]float64, len(ss))
	for i, s := range ss {
		f[i] = s.speed
		if i > 0 {
			if dt := s.at.Sub(ss[i-1].at).Seconds(); dt > 0 {
				f[i] *= max(0, 1-(s.steal-ss[i-1].steal)/(cpus*dt))
			}
		}
	}
	return f
}

// hostFactor is the mean effective speed of all samples: how fast the
// host ran over a whole phase. It is 1 when nothing was sampled.
func hostFactor(ss []hostSample) float64 {
	f := effective(ss)
	if len(f) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	return sum / float64(len(f))
}

// hostFactors cuts the d after start into n equal windows, as
// phase.windows does, and returns each window's mean effective speed. A
// window no sample fell in takes the mean over all of them.
func hostFactors(ss []hostSample, start time.Time, d time.Duration, n int) []float64 {
	w := d / time.Duration(n)
	sum, cnt := make([]float64, n), make([]int, n)
	for i, f := range effective(ss) {
		if k := int(ss[i].at.Sub(start) / w); k >= 0 && k < n {
			sum[k] += f
			cnt[k]++
		}
	}
	all := hostFactor(ss)
	for k := range sum {
		if cnt[k] == 0 {
			sum[k] = all
		} else {
			sum[k] /= float64(cnt[k])
		}
	}
	return sum
}
