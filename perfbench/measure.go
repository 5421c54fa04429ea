package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase is one side of a run: the untraced side gives the end-to-end
// metrics, the traced side (tr != nil) the per-layer ones. A phase only
// counts what happens between begin and end, so input generation and
// output checks stay outside the measurement.
type phase struct {
	tr *tracer

	ops     int
	failed  int
	timed   time.Duration
	gcs     uint32
	pauseNS uint64
	calls   []float64 // ms per client call
	windows []window

	win      window // the open window
	winStart time.Time
	steal0   float64 // steal at winStart

	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

// windowLen is the wall time after which a phase closes its window at the
// end of the next timed section.
const windowLen = time.Second

// window is the timed sections a phase ran in about one windowLen of wall
// time, with the CPU time the hypervisor gave to other guests meanwhile
// (steal, from /proc/stat). The full result lists them all.
type window struct {
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"` // timed
	CPUms   float64 `json:"cpu_ms"`
	AllocKB float64 `json:"alloc_kb"`
	WallS   float64 `json:"wall_s"` // timed or not
	StealS  float64 `json:"steal_s"`
	calls   [2]int  // the window's calls are ph.calls[calls[0]:calls[1]]
}

func (w *window) stealRate() float64 { return w.StealS / w.WallS }

func (ph *phase) begin() {
	if ph.winStart.IsZero() {
		ph.winStart, ph.steal0 = time.Now(), stealSeconds()
		ph.win.calls[0] = len(ph.calls)
	}
	runtime.ReadMemStats(&ph.ms0)
	ph.cpu0 = cpuTime()
	ph.t0 = time.Now()
}

// end closes the section opened by begin, which ran ops ops.
func (ph *phase) end(ops int) {
	d := time.Since(ph.t0)
	cpu := cpuTime() - ph.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.ops += ops
	ph.timed += d
	ph.gcs += ms.NumGC - ph.ms0.NumGC
	ph.pauseNS += ms.PauseTotalNs - ph.ms0.PauseTotalNs
	w := &ph.win
	w.Ops += ops
	w.Seconds += d.Seconds()
	w.CPUms += float64(cpu) / 1e6
	w.AllocKB += float64(ms.TotalAlloc-ph.ms0.TotalAlloc) / 1024
	w.calls[1] = len(ph.calls)
	if time.Since(ph.winStart) >= windowLen {
		ph.closeWindow()
	}
}

// closeWindow closes the open window, if it holds a section.
func (ph *phase) closeWindow() {
	if ph.win.Ops == 0 {
		return
	}
	ph.win.WallS = time.Since(ph.winStart).Seconds()
	if steal := stealSeconds(); steal >= 0 && ph.steal0 >= 0 {
		ph.win.StealS = steal - ph.steal0
	}
	ph.windows = append(ph.windows, ph.win)
	ph.win, ph.winStart = window{}, time.Time{}
}

// call records the duration of one client call made inside a section.
func (ph *phase) call(d time.Duration) { ph.calls = append(ph.calls, float64(d)/1e6) }

func (ph *phase) opsPerSec() float64 { return float64(ph.ops) / ph.timed.Seconds() }

func (ph *phase) perOp(x float64) float64 { return x / float64(ph.ops) }

// quietShare is the quantile of the windows' steal per wall second up to
// which endToEnd keeps windows.
const quietShare = 0.25

// endToEnd computes the end-to-end metrics over the phase's quietest
// windows: those whose steal per wall second is at most the quietShare
// quantile of all of the phase's windows, the last of which must be
// closed. It returns the metrics and the share of the windows kept.
//
// While the hypervisor runs another guest on one of the machine's CPUs,
// the benchmark's threads wait, and that time is the host's, not the
// program's. Every window spans about windowLen and is chosen by the
// host's steal alone, never by how fast the program's sections ran, so
// the choice leans toward no kind of op. On a host without steal every
// window is kept.
func (ph *phase) endToEnd() (map[string]float64, float64) {
	rates := make([]float64, len(ph.windows))
	for i := range ph.windows {
		rates[i] = ph.windows[i].stealRate()
	}
	limit := quantile(rates, quietShare)
	var ops, kept int
	var secs, cpuMS, allocKB float64
	var calls []float64
	for i := range ph.windows {
		w := &ph.windows[i]
		if w.stealRate() > limit {
			continue
		}
		kept++
		ops += w.Ops
		secs += w.Seconds
		cpuMS += w.CPUms
		allocKB += w.AllocKB
		calls = append(calls, ph.calls[w.calls[0]:w.calls[1]]...)
	}
	return map[string]float64{
		"ops_per_s":       float64(ops) / secs,
		"cpu_ms_per_op":   cpuMS / float64(ops),
		"alloc_kb_per_op": allocKB / float64(ops),
		"call_ms_p50":     quantile(calls, 0.5),
		"call_ms_p90":     quantile(calls, 0.9),
	}, float64(kept) / float64(len(ph.windows))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB: VmHWM of
// /proc/self/status. Unlike getrusage's ru_maxrss it starts afresh at exec,
// so it does not report the peak of the wrapper that started the benchmark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// stealSeconds is the CPU time the hypervisor gave to other guests so far,
// summed over all CPUs (the steal column of /proc/stat), or -1 when unknown.
// The difference over a window or a run tells a slow run on a busy host
// from a slow program.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return ticks / 100 // USER_HZ
}

// splitmix derives the i-th independent seed from seed.
func splitmix(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
