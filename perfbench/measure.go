package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accessquery/internal/obs"
)

// percentile returns the p-th percentile of ds by linear interpolation
// between closest ranks, or 0 for an empty sample.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// median of float samples, 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the Go runtime's cumulative allocation and GC CPU
// counters for this process.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPUSeconds             float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPUSeconds = s[2].Value.Float64()
	}
	return out
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// procCPU reads another process's CPU time (user + system) from
// /proc/<pid>/stat. The kernel reports it in clock ticks of 1/100 s.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name field may hold spaces; fields after it start past
	// the last ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// utime and stime are fields 14 and 15 of the whole line, 12 and 13
	// after the command name (state is the first).
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// counter reads one series of the process-wide observability registry.
func counter(name string) int64 { return obs.Counter(name).Value() }

// selfSeconds returns each span's self time — its duration minus the part
// its children cover — summed by span name over a trace summary.
func selfSeconds(sum *obs.TraceSummary) map[string]float64 {
	out := make(map[string]float64)
	if sum == nil {
		return out
	}
	for _, root := range sum.Spans {
		root.Walk(func(n *obs.SpanNode) {
			self := n.Seconds
			for _, c := range n.Children {
				self -= c.Seconds
			}
			out[n.Name] += self
		})
	}
	return out
}

// jain recomputes Jain's fairness index over the valid zones' MAC, the
// figure an engine result reports as Fairness.
func jain(mac []float64, valid []bool) float64 {
	var sum, sumSq float64
	n := 0
	for i, v := range mac {
		if !valid[i] {
			continue
		}
		sum += v
		sumSq += v * v
		n++
	}
	if n == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// pearson returns the correlation coefficient of two equal-length samples.
func pearson(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// closeTo reports whether two fairness figures agree to rounding.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
