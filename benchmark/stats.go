package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted and how
// many samples lie beyond it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func medianDuration(d []time.Duration) time.Duration {
	v, _ := percentile(sortDurations(append([]time.Duration(nil), d...)), 50)
	return v
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTimes is the process's user and system CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// processCPU reads getrusage(RUSAGE_SELF) and the peak resident set in
// bytes.
func processCPU() (cpuTimes, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTimes{user: tv(ru.Utime), sys: tv(ru.Stime)}, ru.Maxrss << 10
}

// settleGoroutines waits up to a second for the goroutine count to
// come back to baseline and returns how many are left over.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(time.Second)
	for {
		extra := runtime.NumGoroutine() - baseline
		if extra <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return extra
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// measured is what timing a rung's loop yields.
type measured struct {
	nsPerOp     float64
	allocsPerOp float64
	mbps        float64 // 1e6 bytes per second; 0 when the rung moves no payload
}

// measureOp runs op in batches until minTime has passed (at least
// minIters iterations), after one untimed call.
func measureOp(op func() error, bytes int64, minTime time.Duration, minIters int) (measured, error) {
	if err := op(); err != nil {
		return measured{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	iters := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return measured{}, err
			}
		}
		iters += batch
		if iters >= minIters && time.Since(start) >= minTime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	m := measured{
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
	}
	if bytes > 0 {
		m.mbps = float64(bytes) * float64(iters) / 1e6 / elapsed.Seconds()
	}
	return m, nil
}

// gcCPUFraction is the share of the process's available CPU the
// collector has used since start.
func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}
