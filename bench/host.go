package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Shared benchmark hosts change speed by tens of percent within minutes
// as neighbours come and go, far more than the changes this benchmark
// must resolve. Before the set-up repetitions and about once a second
// between measured units, the benchmark therefore times a fixed
// reference kernel that lives in this package (no change to the
// repository's code can speed it up or slow it down), run as wide as the
// workload, and reports end-to-end host times and rates at the speed of
// a host on which the kernel takes refNominal seconds: times are divided
// and rates multiplied by median(kernel)/refNominal. host.ref_ms reports
// that median, so the measured values can be recovered. README.md gives
// the spreads with and without the conversion.

// refNominal is the reference kernel's typical time on the 2-CPU host
// the bounds in BENCHMARK.json were measured on.
const refNominal = 0.0035

// refCalibrateEvery is how often, at most, units() re-times the kernel.
const refCalibrateEvery = time.Second

// refBuf is the memory kernel's working set: 4 MiB, beyond the private
// caches, so contention for the shared cache and memory shows.
var refBuf = make([]uint64, 1<<19)

// hostRefALU is a dependent integer and branch loop.
func hostRefALU(n int) uint64 {
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			s += x
		}
	}
	return s
}

// hostRefMem is independent random reads of refBuf.
func hostRefMem(n int) uint64 {
	x, s := uint64(0x9e3779b97f4a7c15), uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += refBuf[x&(uint64(len(refBuf))-1)]
	}
	return s
}

// refKernel times the reference kernel on par goroutines at once (the
// workload's parallelism, so contention on every CPU it uses shows):
// the geometric mean of its two halves' wall seconds.
func refKernel(par int) float64 {
	phase := func(f func(int) uint64, n int) float64 {
		return timed(func() {
			var wg sync.WaitGroup
			for g := 0; g < par; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					refSink.Add(f(n))
				}()
			}
			wg.Wait()
		})
	}
	return math.Sqrt(phase(hostRefALU, 1_200_000) * phase(hostRefMem, 1_600_000))
}

var refSink atomic.Uint64

// calibrate times the reference kernel, keeping the faster of two runs
// so a collection or preemption landing on one does not count.
func (r *run) calibrate() {
	r.refs = append(r.refs, min(refKernel(r.par), refKernel(r.par)))
	r.lastCal = time.Now()
}

// maybeCalibrate calibrates when the last calibration is refCalibrateEvery old.
func (r *run) maybeCalibrate() {
	if time.Since(r.lastCal) >= refCalibrateEvery {
		r.calibrate()
	}
}

// hostScale is the run's median kernel time over refNominal: the factor
// by which this host ran slower than the reference host.
func (r *run) hostScale() float64 { return median(r.refs) / refNominal }
