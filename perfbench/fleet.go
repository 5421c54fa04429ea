package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

// fleetBatch is the number of jobs in one fleet.Engine.Run; MaxInFlight
// equals it, so no job is rejected and the batch measures the program's
// per-job cost, not the Go scheduler juggling thousands of goroutines.
const fleetBatch = 32

// fleetNproc and fleetIters are fleet.Config's defaults, named here because
// store calls are attributed to jobs by namespaced process range.
const (
	fleetNproc = 3
	fleetIters = 3
)

// fleetLoad runs back-to-back fleet.Engine.Run batches of JacobiFig1 jobs in
// a closed loop: no crashes, no chaos, a fresh in-memory backing store per
// batch. Each job's fixed cost dominates: sim.Compile, RNG seeding, trace
// recording, allocation and GC. The storage layer sees saves only.
type fleetLoad struct {
	seed    int64
	batches int
	stats   map[*phase]*fleetStats
}

type fleetStats struct {
	counters *metrics.Counters
	saves    int64 // saves through the timing wrapper
	calls    int64 // calls through the timing wrapper
	batchMS  []float64
	rejected int64
	sheds    int64
}

func newFleet(seed int64) *fleetLoad {
	return &fleetLoad{seed: seed, stats: make(map[*phase]*fleetStats)}
}

// setup runs one warm-up batch, outside any phase.
func (f *fleetLoad) setup() error {
	f.batches = 0
	eng := fleet.New(fleet.Config{Jobs: fleetBatch, MaxInFlight: fleetBatch, Seed: f.seed})
	rep, err := eng.Run()
	if err != nil {
		return err
	}
	return checkFleet(rep)
}

func (f *fleetLoad) close() error { return nil }

// checkFleet checks a batch's report: the taxonomy is conserved, nothing
// was rejected, and every admitted job succeeded.
func checkFleet(rep *fleet.Report) error {
	if !rep.Conserved() {
		return fmt.Errorf("taxonomy not conserved: %+v", rep)
	}
	if rep.Admitted != fleetBatch || rep.Buckets[fleet.BucketSucceeded] != fleetBatch {
		return fmt.Errorf("%d of %d jobs admitted, %d succeeded", rep.Admitted, fleetBatch, rep.Buckets[fleet.BucketSucceeded])
	}
	return nil
}

// jobSpans is an obs.Observer that keeps only admit and jobdone events and
// turns each job into a span from admission to its terminal bucket. With
// MaxInFlight equal to the batch size every arrival is admitted, so the
// k-th admit event is job k.
type jobSpans struct {
	tr    *tracer
	base  int // op id of job 0
	mu    sync.Mutex
	spans []int // span id by job
}

func (o *jobSpans) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.KindAdmit:
		o.mu.Lock()
		job := len(o.spans)
		o.spans = append(o.spans, o.tr.open("fleet.job", -1, o.base+job))
		o.mu.Unlock()
	case obs.KindJobDone:
		o.tr.close(o.span(e.Inc))
	}
}

func (o *jobSpans) span(job int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans[job]
}

func (f *fleetLoad) chunk(ph *phase) error {
	st := f.stats[ph]
	if st == nil {
		st = &fleetStats{counters: &metrics.Counters{}}
		f.stats[ph] = st
	}
	base := f.batches * fleetBatch
	cfg := fleet.Config{
		Jobs:        fleetBatch,
		MaxInFlight: fleetBatch,
		Seed:        splitmix(f.seed, f.batches),
		Store:       storage.NewMemory(),
		Counters:    st.counters,
	}
	f.batches++
	var ts *timedStore
	if ph.tr != nil {
		o := &jobSpans{tr: ph.tr, base: base}
		cfg.Observer = o
		ts = newTimedStore(cfg.Store, ph.tr, func(proc int) (int, int) {
			job := proc / fleetNproc
			return o.span(job), base + job
		})
		cfg.Store = ts.store()
	}
	ph.begin()
	t0 := time.Now()
	rep, err := fleet.New(cfg).Run()
	d := time.Since(t0)
	ph.call(d)
	ph.end(fleetBatch)
	if rep == nil {
		return err
	}
	st.batchMS = append(st.batchMS, float64(d)/1e6)
	if ts != nil {
		st.saves += ts.saves.Load()
		st.calls += ts.calls.Load()
	}
	st.rejected += rep.RejectedTotal()
	st.sheds += rep.Breaker.Shed
	if err := checkFleet(rep); err != nil {
		ph.failed += fleetBatch - int(rep.Buckets[fleet.BucketSucceeded])
		logf("fleet: batch %d: %v", f.batches-1, err)
	}
	if ph.tr != nil {
		start := ph.tr.now()
		_, err := sim.Compile(corpus.JacobiFig1(fleetIters))
		ph.tr.add("sim.compile", start, ph.tr.now(), -1, base)
		return err
	}
	return nil
}

// layers reports spans and wrapper counts from the traced phase, and the
// program's own counters from the untraced one.
func (f *fleetLoad) layers(plain, traced *phase) map[string]float64 {
	st, tr := f.stats[traced], traced.tr
	pst := f.stats[plain]
	snap := pst.counters.Snapshot()
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e6 }
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	return idle(map[string]float64{
		"fleet.batch_ms_p50":         quantile(st.batchMS, 0.5),
		"fleet.job_ms_p50":           ms(tr.durations("fleet.job"), 0.5),
		"fleet.job_ms_p99":           ms(tr.durations("fleet.job"), 0.99),
		"sim.job_self_ms_p50":        ms(tr.selfTimes("fleet.job"), 0.5),
		"sim.app_messages_per_op":    plain.perOp(float64(snap.AppMessages)),
		"sim.checkpoints_per_op":     plain.perOp(float64(snap.Checkpoints)),
		"prune.bytes_saved_per_save": float64(snap.Custom[sim.MetricPruneBytesSaved]) / float64(snap.Checkpoints),
		"store.save_us_p50":          us(tr.durations("store.save"), 0.5),
		"store.save_us_p99":          us(tr.durations("store.save"), 0.99),
		"store.saves_per_op":         traced.perOp(float64(st.saves)),
		"store.reads_per_op":         traced.perOp(float64(st.calls - st.saves)),
		"store.saves_per_s":          float64(snap.Checkpoints) / plain.timed.Seconds(),
		"fleet.rejected":             float64(pst.rejected + st.rejected),
		"breaker.sheds":              float64(pst.sheds + st.sheds),
		"sim.compile_us_p50":         us(tr.durations("sim.compile"), 0.5),
	}, analyzeLayers, recoverLayers)
}
