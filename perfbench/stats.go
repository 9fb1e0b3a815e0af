package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile is the q-th sample quantile of xs (linear interpolation between
// closest ranks); xs need not be sorted. NaN for no samples.
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

// sample is one reading of the process-wide counters the metrics are
// differences of.
type sample struct {
	wall     time.Time
	cpu      time.Duration // user+sys (getrusage)
	wchar    int64         // /proc/self/io
	syscw    int64
	alloc    uint64 // runtime.MemStats.TotalAlloc
	numGC    uint32
	gcCPU    float64 // runtime/metrics, seconds
	totalCPU float64
	registry map[string]int64 // summed over parties
	dgrams   int64
	entries  int64 // evidence-log entries over all parties
	host     hostCPU
}

// hostCPU is the machine-wide CPU accounting of /proc/stat in clock ticks:
// time stolen by the hypervisor and spent waiting for I/O. The summary
// prints both for the timed phase, so a run slowed by its host shows it,
// and windowStats reads steal to leave out the windows it slowed.
type hostCPU struct{ steal, iowait int64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	iowait, _ := strconv.ParseInt(f[5], 10, 64)
	steal, _ := strconv.ParseInt(f[8], 10, 64)
	return hostCPU{steal: steal, iowait: iowait}
}

// processCPU is the process's user+sys CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readSample() sample {
	var s sample
	s.cpu = processCPU()
	io := procFields("/proc/self/io", ":")
	s.wchar, s.syscw = io["wchar"], io["syscw"]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.numGC = ms.TotalAlloc, ms.NumGC
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	if m[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = m[1].Value.Float64()
	}
	s.host = readHostCPU()
	s.wall = time.Now()
	return s
}

// procFields parses "name<sep> value ..." lines of a procfs file into
// integers (the first number after the separator); missing file: empty.
func procFields(path, sep string) map[string]int64 {
	out := map[string]int64{}
	f, err := os.Open(path)
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), sep)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	return float64(procFields("/proc/self/status", ":")["VmHWM"]) / 1024
}
