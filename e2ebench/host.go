package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the host and build a result was measured on;
// figures from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		GitSHA:     gitSHA("."),
		Seed:       seed,
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return string(b)
}

func cpuModel() string {
	for _, line := range strings.Split(readFile("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD of the repository at root without running git;
// an exported source tree has no .git and reports "unknown".
func gitSHA(root string) string {
	git := filepath.Join(root, ".git")
	head := strings.TrimSpace(readFile(filepath.Join(git, "HEAD")))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head
	}
	if sha := strings.TrimSpace(readFile(filepath.Join(git, filepath.FromSlash(ref)))); sha != "unknown" {
		return sha
	}
	for _, line := range strings.Split(readFile(filepath.Join(git, "packed-refs")), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample reads the Go runtime's cumulative GC CPU, total CPU
// and heap allocation counters; differences of two samples give the
// runtime cost of the work between them.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocBytes + b.allocBytes}
}

func (a runtimeSample) gcShare() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// allocBytes measures the heap bytes f allocates. Run it only while no
// other goroutine of the benchmark is working.
func allocBytes(f func()) float64 {
	before := readRuntime().allocBytes
	f()
	return readRuntime().allocBytes - before
}

// stealClock marks a point in time and the machine's stolen CPU time.
type stealClock struct {
	t      time.Time
	stolen float64 // seconds, summed over CPUs
}

func markSteal() stealClock { return stealClock{time.Now(), stealJiffies() / 100} }

// share is the part of the machine's CPU time since m that the
// hypervisor stole; 0 where the kernel reports no steal.
func (m stealClock) share() float64 {
	now := markSteal()
	wall := now.t.Sub(m.t).Seconds()
	if wall <= 0 {
		return 0
	}
	return (now.stolen - m.stolen) / wall / float64(runtime.NumCPU())
}

// stealJiffies is the CPU time the hypervisor took from this machine's
// CPUs, in clock ticks (USER_HZ, 100 per second on Linux).
func stealJiffies() float64 {
	line, _, _ := strings.Cut(readFile("/proc/stat"), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v
}
