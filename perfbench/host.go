package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostStamp identifies where and from what a result was measured.
func hostStamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spinMS times a fixed integer loop on every core, in ms: a reading of
// how fast the host runs at that moment, independent of the code under
// test. Comparing it across runs separates host contention from
// changes in the program.
func spinMS() float64 {
	const iters = 20_000_000
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(c + 1)
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 17
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cpuTime returns the CPU time, user and system, that all threads of
// the process have used. Time the hypervisor takes from a virtual CPU
// (steal) is not in it, so it measures the work done rather than the
// share of the host the process was given.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs since boot, summed over CPUs, from /proc/stat
// (0 where it is not reported).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// spinSink keeps the spin loops' results alive.
var spinSink atomic.Uint64

// rssWindow is the window of each peak resident-set sample.
const rssWindow = time.Second

// sampleRSS appends the peak resident set of every rssWindow to out
// until the returned stop is called; stop waits for the sampler. Each
// sample resets the kernel's high-water mark, so a sample is the peak of
// its own window. Where the reset is refused, samples are the process's
// running peak.
func sampleRSS(out *[]float64) (stop func()) {
	peakRSSMB(true)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				*out = append(*out, peakRSSMB(true))
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		if len(*out) == 0 {
			*out = append(*out, peakRSSMB(false))
		}
	}
}

// peakRSSMB returns the process's peak resident set size in MiB since
// the last reset; reset starts a new window.
func peakRSSMB(reset bool) float64 {
	if reset {
		defer os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // samples then read the running peak
	}
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Go runtime readings, via runtime/metrics.
const (
	mGCCPU   = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU  = "/cpu/classes/total:cpu-seconds"
	mAllocs  = "/gc/heap/allocs:bytes"
	mSchedLt = "/sched/latencies:seconds"
)

type rtSnap struct {
	gcCPU, allCPU float64
	allocBytes    float64
	sched         *rtmetrics.Float64Histogram
}

// rtDelta is the runtime's activity between two snapshots.
type rtDelta struct {
	gcCPU, allCPU float64
	allocBytes    float64
	schedBuckets  []float64
	schedCounts   []uint64
}

func readRuntime() rtSnap {
	s := []rtmetrics.Sample{{Name: mGCCPU}, {Name: mAllCPU}, {Name: mAllocs}, {Name: mSchedLt}}
	rtmetrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return rtSnap{
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
		sched:      &rtmetrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
	}
}

func (a rtSnap) sub(b rtSnap) rtDelta {
	d := rtDelta{
		gcCPU:        a.gcCPU - b.gcCPU,
		allCPU:       a.allCPU - b.allCPU,
		allocBytes:   a.allocBytes - b.allocBytes,
		schedBuckets: a.sched.Buckets,
		schedCounts:  make([]uint64, len(a.sched.Counts)),
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = a.sched.Counts[i] - b.sched.Counts[i]
	}
	return d
}

func (d rtDelta) add(o rtDelta) rtDelta {
	d.gcCPU += o.gcCPU
	d.allCPU += o.allCPU
	d.allocBytes += o.allocBytes
	counts := append([]uint64(nil), d.schedCounts...)
	for i := range counts {
		counts[i] += o.schedCounts[i]
	}
	d.schedCounts = counts
	return d
}

func (d rtDelta) gcCPUFrac() float64 {
	if d.allCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.allCPU
}

// schedP90us is the 90th percentile of goroutine scheduling latency in
// µs, read as the upper edge of the bucket holding it.
func (d rtDelta) schedP90us() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.9)
	var acc uint64
	for i, c := range d.schedCounts {
		acc += c
		if acc > want {
			return d.schedBuckets[i+1] * 1e6
		}
	}
	return d.schedBuckets[len(d.schedBuckets)-1] * 1e6
}
