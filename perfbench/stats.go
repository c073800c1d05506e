package main

import (
	"container/heap"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is not modified; an empty xs gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime is the process's user+system CPU time (getrusage): every
// goroutine of the process counts, clients and server alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read through runtime/metrics, which (unlike
// runtime.ReadMemStats) does not stop the world.
const (
	allocBytesMetric = "/gc/heap/allocs:bytes"
	allocObjsMetric  = "/gc/heap/allocs:objects"
	gcCPUMetric      = "/cpu/classes/gc/total:cpu-seconds"
	totalCPUMetric   = "/cpu/classes/total:cpu-seconds"
)

// runtimeSample is a snapshot of the runtime counters the benchmark
// divides by work done.
type runtimeSample struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: allocBytesMetric}, {Name: allocObjsMetric},
		{Name: gcCPUMetric}, {Name: totalCPUMetric},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// Host-speed calibration. On a shared host other tenants slow every
// instruction by a fifth or more, in phases that last minutes, so two
// runs of the same program minutes apart differ by more than any change
// worth measuring. A fixed loop that uses only the standard library —
// a binary heap, a string-keyed map and small allocations, the kind of
// work the simulator does — slows in step. The benchmark times it
// between its windows and reports each timing scaled by refCalib over
// the loop's median time: the timing the run would have shown on a host
// where the loop takes refCalib.
const refCalib = 10 * time.Millisecond

type calibHeap []int64

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type calibItem struct {
	v    int64
	name string
}

// calibIters sizes the calibration loop: about 10 ms on a 2-CPU VM.
const calibIters = 50000

// calibrationLoop is the fixed work the host's speed is measured by.
func calibrationLoop() int64 {
	var h calibHeap
	m := make(map[string]int64, 64)
	names := make([]string, 64)
	for i := range names {
		names[i] = "t" + strconv.Itoa(i)
	}
	var live []*calibItem
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		heap.Push(&h, int64(x>>20))
		if h.Len() > 4096 {
			v := heap.Pop(&h).(int64)
			m[names[v&63]] += v
		}
		if i&15 == 0 {
			live = append(live[:0], &calibItem{v: int64(x), name: names[x&63]})
		}
	}
	sum := int64(len(live))
	for _, v := range m {
		sum += v
	}
	return sum
}

// calibrate runs the loop on n goroutines at once — as many as the
// workload keeps busy — and returns each run's CPU time in ms. A
// collection first clears the workload's garbage, and each loop holds
// its own thread and reads that thread's CPU time, so neither the
// collector nor another goroutine is timed with it.
func calibrate(n int) []float64 {
	runtime.GC()
	out := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			calibSink.Add(calibrationLoop())
			out[i] = float64(threadCPU()-t0) / 1e6
		}(i)
	}
	wg.Wait()
	return out
}

// rusageThread is Linux's RUSAGE_THREAD: the calling thread's usage.
const rusageThread = 1

func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibSink keeps the loop's result live.
var calibSink atomic.Int64

// speedScale is refCalib over the median calibration time.
func speedScale(calibMS []float64) float64 {
	return float64(refCalib) / 1e6 / median(calibMS)
}

// window is one slice of a timed phase: the work it completed and the
// resources it used.
type window struct {
	ops   float64 // requests answered, or jobs simulated
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// usage captures the counters a window is the difference of.
type usage struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	return usage{at: time.Now(), cpu: cpuTime(), alloc: readRuntime().allocBytes}
}

// to closes the window from u to v, which completed ops units of work.
func (u usage) to(v usage, ops float64) window {
	return window{ops: ops, wall: v.at.Sub(u.at), cpu: v.cpu - u.cpu, alloc: v.alloc - u.alloc}
}

// since closes a window from u to now.
func (u usage) since(ops float64) window { return u.to(readUsage(), ops) }

// perOp returns f(w)/w.ops for every window that completed work.
func perOp(ws []window, f func(window) float64) []float64 {
	var xs []float64
	for _, w := range ws {
		if w.ops > 0 {
			xs = append(xs, f(w)/w.ops)
		}
	}
	return xs
}

// total sums windows.
func total(ws []window) window {
	var t window
	for _, w := range ws {
		t.ops += w.ops
		t.wall += w.wall
		t.cpu += w.cpu
		t.alloc += w.alloc
	}
	return t
}

func cpuUS(w window) float64  { return float64(w.cpu) / 1e3 }
func wallUS(w window) float64 { return float64(w.wall) / 1e3 }
func allocB(w window) float64 { return float64(w.alloc) }
