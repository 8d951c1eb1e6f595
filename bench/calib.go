package bench

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The reference box is a shared two-vCPU guest whose speed moves in
// phases that last from under a minute to twenty: between a fast and a
// slow phase the same code on the same inputs takes 1.25× as long in
// registers and 2× as long per dependent cache-missing load, and the
// program — set-up, CPU per report, latency, flood throughput alike —
// 1.4–1.6×. Ten runs that straddle a phase change spread by 20–30 % of
// their median, more than any bound may be. So every instance measures,
// when its set-up is done and again after its window and in its own
// process, how fast the host is running, with two fixed kernels that share
// no code with the program, and a run's time-based end-to-end metrics are
// reported at the reference speed: the median measured value ÷ the median
// slowdown of its instances.
//
// slowdown = (1−memShare)·alu/aluRefMS + memShare·chase/chaseRefMS is the
// time of a task that spends memShare of the reference box's fast phase
// waiting for memory and the rest computing. memShare was fitted once, on
// 120 runs of two workloads logged over 46 minutes and a dozen phase
// changes (README, "Host speed"): anywhere from 0.2 to 0.5 the quartile
// spread of every time-based metric falls from 14–23 % to 6–13 %, and 0.3
// is used for all. The two reference times are the reference box's fast
// phase; on another box they only fix the unit.
const (
	memShare   = 0.3
	aluRefMS   = 25.0
	chaseRefMS = 120.0
)

// calibSink keeps the kernels' results alive.
var calibSink uint64

// onAllCores runs fn on every core at once, as the program does, and
// returns the wall time in milliseconds.
func onAllCores(fn func(k int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}

// aluKernel is integer and floating-point arithmetic in registers.
func aluKernel() float64 {
	var sum [64]uint64
	ms := onAllCores(func(k int) {
		x, f := uint64(k)+88172645463325252, 1.0001
		for i := 0; i < 12_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = math.FMA(f, 1.0000001, 1e-9)
		}
		sum[k%len(sum)] = x + uint64(f)
	})
	for _, s := range sum {
		calibSink += s
	}
	return ms
}

// chaseKernel follows a random cycle through 32 MiB: each load depends on
// the one before and misses every cache, so the loop runs at the latency
// of memory. The ring is built and dropped here, so that it is never part
// of the heap a window is measured on.
func chaseKernel() float64 {
	const n = 8 << 20
	ring := make([]uint32, n)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every element.
	x := uint64(2463534242)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	var end [64]uint32
	ms := onAllCores(func(k int) {
		p := uint32(k * 4099)
		for i := 0; i < 1_500_000; i++ {
			p = ring[p]
		}
		end[k%len(end)] = p
	})
	for _, p := range end {
		calibSink += uint64(p)
	}
	return ms
}

// hostSample is one measurement of the host's speed.
type hostSample struct {
	aluMS, chaseMS float64
	// slowdown is 1 on the reference box's fast phase and about 1.45 on
	// its slow one.
	slowdown float64
}

func measureHost() hostSample {
	h := hostSample{aluMS: aluKernel(), chaseMS: chaseKernel()}
	h.slowdown = (1-memShare)*h.aluMS/aluRefMS + memShare*h.chaseMS/chaseRefMS
	return h
}

// atReferenceSpeed converts a measured end-to-end value to what it would
// read on a host running at the reference speed: times shrink by the
// slowdown, rates grow by it, sizes stay. A paced workload's
// reports_per_s is set by its schedule, not by the host, and stays too.
func atReferenceSpeed(d Decl, v, slowdown float64, paced bool) float64 {
	switch {
	case slowdown <= 0:
		return v
	case d.Unit == "s" || d.Unit == "ms" || d.Unit == "us":
		return v / slowdown
	case d.Unit == "1/s" && !paced:
		return v * slowdown
	}
	return v
}
