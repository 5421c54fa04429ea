// Command perfbench is the repository's benchmark. It runs one seeded
// workload in a closed loop from a single client goroutine, checks every
// output, and prints one JSON result line last on standard output:
//
//	perfbench --workload analyze|fleet|recover --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics BENCHMARK.json
// lists. With --trace 1 the run alternates untraced and traced sections and
// the result holds the per-layer metrics, timed by spans the benchmark
// records around calls into each module's public functions. Run it from the
// repository root through run.py, which builds it first; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and state the timed loop needs, replacing
	// those of an earlier setup.
	setup() error
	// chunk runs one timed section in phase ph, counting failed output
	// checks in ph.failed. An error aborts the run.
	chunk(ph *phase) error
	// layers returns the workload's per-layer metrics.
	layers(plain, traced *phase) map[string]float64
	close() error
}

// The per-layer metrics of the layers only some workloads exercise. A
// workload reports those of the layers it does not exercise as 0 through
// idle; any other metric BENCHMARK.json lists that a workload does not set
// fails the run.
var (
	analyzeLayers = []string{
		"mpl.parse_us_p50", "insert.us_p50", "place.us_p50", "place.us_p99",
		"place.rounds_per_op", "place.moves_per_op", "core.self_us_p50",
	}
	// jobLayers are exercised by the workloads that run jobs: fleet and
	// recover.
	jobLayers = []string{
		"sim.app_messages_per_op", "sim.checkpoints_per_op", "prune.bytes_saved_per_save",
		"store.save_us_p50", "store.save_us_p99", "store.saves_per_op", "store.saves_per_s",
		"store.reads_per_op",
	}
	fleetLayers = []string{
		"fleet.batch_ms_p50", "fleet.job_ms_p50", "fleet.job_ms_p99", "sim.job_self_ms_p50",
		"fleet.rejected", "breaker.sheds",
	}
	recoverLayers = []string{
		"store.list_us_p50", "store.list_us_p99",
		"wal.saves_per_batch", "wal.rotations", "wal.compactions", "wal.dir_bytes_per_save",
		"recovery.ms_p50", "recovery.ms_p90", "recovery.ms_growth",
		"recovery.store_calls_per_call", "recovery.snapshots_read_per_call",
		"recovery.rollbacks_per_call", "recovery.degraded_per_call",
		"sim.run_self_ms_p50", "sim.restarts_per_op", "sim.restarted_events_per_op",
		"sim.blocked_ms_per_op",
	}
)

// idle reports the metrics of the layers in groups as 0 in m, where m does
// not set them, and returns m.
func idle(m map[string]float64, groups ...[]string) map[string]float64 {
	for _, g := range groups {
		for _, n := range g {
			if _, ok := m[n]; !ok {
				m[n] = 0
			}
		}
	}
	return m
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: analyze, fleet or recover")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fl.Float64("seconds", 10, "seconds of timed work")
	traced := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and full results")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || fl.NArg() > 0 {
		logf("perfbench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	var w workload
	switch *name {
	case "analyze":
		w = newAnalyze(*seed)
	case "fleet":
		w = newFleet(*seed)
	case "recover":
		w = newRecover(*seed, filepath.Join(*out, "tmp"))
	default:
		logf("perfbench: unknown workload %q", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	res, full, tr, err := measure(w, *seconds, *traced == 1, sp)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		logf("perfbench: %s: %v", *name, err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced)
	full["workload"], full["seed"], full["result"] = *name, *seed, res
	if err := writeJSON(filepath.Join(*out, tag+".json"), full); err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	if tr != nil {
		if err := tr.write(filepath.Join(*out, tag+".spans.tsv.gz")); err != nil {
			logf("perfbench: %v", err)
			return 1
		}
	}
	prov, err := json.Marshal(map[string]any{"provenance": full["provenance"]})
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(prov))
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// measure sets w up setupReps times, then runs timed sections until the
// untraced phase (and with trace, the traced phase too) has run its share
// of the seconds. Traced and untraced sections alternate, so both see the
// same conditions. It returns the result, everything the result was
// computed from, and the traced phase's spans.
func measure(w workload, seconds float64, trace bool, sp *spec) (*result, map[string]any, *tracer, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	steal0 := stealSeconds()
	plain := &phase{}
	var tph *phase
	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		tph = &phase{tr: newTracer()}
		budget /= 2
	}
	for {
		ph := plain
		if tph != nil && tph.timed < plain.timed {
			ph = tph
		}
		if ph.timed >= budget {
			break
		}
		if err := w.chunk(ph); err != nil {
			return nil, nil, nil, err
		}
	}

	plain.closeWindow()
	if tph != nil {
		tph.closeWindow()
		tph.tr.finish()
	}
	res := &result{Attempted: plain.ops, Failed: plain.failed}
	full := map[string]any{
		"provenance": provenance(),
		"setup_s":    setups,
		"untraced":   plain.windows,
	}
	if steal0 >= 0 {
		full["host_steal_s"] = stealSeconds() - steal0
	}
	var values map[string]float64
	specs := sp.EndToEnd
	if trace {
		res.Attempted += tph.ops
		res.Failed += tph.failed
		full["traced"] = tph.windows
		values = w.layers(plain, tph)
		values["gc.cycles_per_op"] = plain.perOp(float64(plain.gcs))
		values["gc.pause_us_per_op"] = plain.perOp(float64(plain.pauseNS) / 1e3)
		values["trace.overhead_frac"] = 1 - tph.opsPerSec()/plain.opsPerSec()
		specs = sp.PerLayer
	} else {
		values, full["windows_kept_frac"] = plain.endToEnd()
		values["setup_s"] = quantile(append([]float64(nil), setups...), 0.5)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, nil, err
		}
		values["max_rss_mb"] = rss
	}
	res.Correct = res.Failed == 0
	res.Metrics = make(map[string]metricValue, len(specs))
	var unknown []string
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			unknown = append(unknown, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		delete(values, m.Name)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for n := range values {
		unknown = append(unknown, n)
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, nil, nil, fmt.Errorf("metrics and BENCHMARK.json disagree on: %s", strings.Join(unknown, ", "))
	}
	var tr *tracer
	if trace {
		tr = tph.tr
	}
	return res, full, tr, nil
}

// provenance describes where and on what a result was measured.
func provenance() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit of the checkout the benchmark runs in, or
// "unknown" outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
