package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// heapAllocs is the cumulative count of heap objects allocated. It reads
// runtime/metrics, which, unlike ReadMemStats, does not stop the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// retainedHeapMB is HeapAlloc after full collections, in MB. The second
// collection empties the sync.Pool victim caches the first one leaves.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// cpuClock is a reading of the process's CPU accounting.
type cpuClock struct {
	wall    time.Time
	process float64 // user+system CPU seconds (getrusage)
	gc      float64 // runtime/metrics /cpu/classes/gc/total
	total   float64 // /cpu/classes/total: wall × GOMAXPROCS, as the runtime sees it
	idle    float64 // /cpu/classes/idle
}

func readCPU() cpuClock {
	c := cpuClock{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.process = tv(ru.Utime) + tv(ru.Stime)
	}
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	c.gc, c.total, c.idle = f(0), f(1), f(2)
	return c
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// cpuUtil is process CPU time over wall time × GOMAXPROCS between two
// readings: 1 means every P was busy the whole time.
func cpuUtil(a, b cpuClock) float64 {
	wall := b.wall.Sub(a.wall).Seconds() * float64(runtime.GOMAXPROCS(0))
	if wall <= 0 {
		return 0
	}
	return (b.process - a.process) / wall
}

// gcCPUFrac is the share of the runtime's busy (non-idle) CPU time spent
// in garbage collection between two readings.
func gcCPUFrac(a, b cpuClock) float64 {
	busy := (b.total - a.total) - (b.idle - a.idle)
	if busy <= 0 {
		return 0
	}
	return (b.gc - a.gc) / busy
}

// environment stamps a result with the hardware and build it ran on.
func environment(seed uint64) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"git_commit": gitCommit(),
		"seed":       seed,
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

// gitCommit is the commit the binary was built from, as go build stamps
// it, with "+modified" when the tree had uncommitted changes. A binary
// built outside a repository reads "unknown".
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, kv := range info.Settings {
		switch {
		case kv.Key == "vcs.revision":
			rev = kv.Value
		case kv.Key == "vcs.modified" && kv.Value == "true":
			modified = "+modified"
		}
	}
	return rev + modified
}
