package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(q*float64(len(xs)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timerLateness sleeps for d, samples times, and returns the p50 and p99
// of how much later than asked each sleep woke, in microseconds.
func timerLateness(samples int, d time.Duration) (p50, p99 float64) {
	late := make([]float64, samples)
	for i := range late {
		t := time.Now()
		time.Sleep(d)
		late[i] = float64(time.Since(t)-d) / float64(time.Microsecond)
	}
	return quantile(late, 0.50), quantile(late, 0.99)
}

// cpuModel reads the CPU model name from /proc/cpuinfo where the host
// has one.
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

// hostCPU is a reading of the host's aggregate CPU time from
// /proc/stat, in clock ticks: the time the hypervisor stole from this
// machine's CPUs and the total.
type hostCPU struct{ steal, total int64 }

// readHostCPU reads the host's CPU times; zero where the host has no
// /proc/stat or it has no steal column.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // "cpu" user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		if i < 8 { // guest time is already counted in user and nice
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShareSince is the share of the host's CPU time the hypervisor
// stole since the reading h. On a shared host, the wall-clock tails
// follow it.
func (h hostCPU) stealShareSince() float64 {
	now := readHostCPU()
	if now.total <= h.total {
		return 0
	}
	return float64(now.steal-h.steal) / float64(now.total-h.total)
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil && ru.Maxrss > 0 {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// usage is a reading of the process's resource counters, or the
// difference of two readings.
type usage struct {
	cpuS   float64 // user + system CPU seconds
	gcCPUS float64 // CPU seconds the runtime spent in GC
	allocs uint64  // heap objects allocated
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	u := usage{
		cpuS: float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPUS = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocs = s[1].Value.Uint64()
	}
	return u
}

// since is the usage between an earlier reading and now.
func (u usage) since() usage {
	now := readUsage()
	return usage{now.cpuS - u.cpuS, now.gcCPUS - u.gcCPUS, now.allocs - u.allocs}
}

func (u usage) plus(o usage) usage {
	return usage{u.cpuS + o.cpuS, u.gcCPUS + o.gcCPUS, u.allocs + o.allocs}
}

// runtimeMetrics fills the runtime.* per-layer metrics for ops units of
// work done with the given usage.
func runtimeMetrics(v map[string]float64, used usage, ops int64) {
	if ops < 1 {
		ops = 1
	}
	v["runtime.cpu_s_per_kop"] = used.cpuS / float64(ops) * 1000
	v["runtime.allocs_per_op"] = float64(used.allocs) / float64(ops)
	if used.cpuS > 0 {
		v["runtime.gc_cpu_fraction"] = used.gcCPUS / used.cpuS
	} else {
		v["runtime.gc_cpu_fraction"] = 0
	}
}

// cpuPerOp is CPU seconds per unit of work.
func cpuPerOp(used usage, ops int64) float64 {
	if ops < 1 {
		return 0
	}
	return used.cpuS / float64(ops)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// statWindow is the length of the slices a measured window is cut into.
const statWindow = time.Second
