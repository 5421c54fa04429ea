package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// recoverSource is the recover workload's job: corpus.StencilSkewed(4, 24)
// with a local compute loop of WORK steps after each exchange, run on 8
// processes with a seeded crash schedule of λ = 1 crash per incarnation over
// three incarnations, so some crashes strike during recovery. Without the
// loop a job does little but wait for the fsync of each save, so it times
// the disk, whose speed on a shared host can halve within a minute; with
// it, a job computes between checkpoints as a real one does, and a crash
// also costs the work done since the recovery line.
const recoverSource = `program recover_stencil

const W = 4
const ITERS = 24
const WORK = %d

var u, ul, ur, uu, ud, it, k

proc {
    u = (rank + 1) * 10
    it = 0
    while it < ITERS {
        if rank %% W %% 2 == 0 {
            chkpt
            if rank %% W != 0 {
                send(rank - 1, u)
            }
            if rank %% W != W - 1 {
                send(rank + 1, u)
            }
            if rank %% W != 0 {
                recv(rank - 1, ul)
            }
            if rank %% W != W - 1 {
                recv(rank + 1, ur)
            }
            send(rank - W, u)
            send(rank + W, u)
            recv(rank - W, uu)
            recv(rank + W, ud)
        } else {
            if rank %% W != 0 {
                send(rank - 1, u)
            }
            if rank %% W != W - 1 {
                send(rank + 1, u)
            }
            if rank %% W != 0 {
                recv(rank - 1, ul)
            }
            if rank %% W != W - 1 {
                recv(rank + 1, ur)
            }
            send(rank - W, u)
            send(rank + W, u)
            recv(rank - W, uu)
            recv(rank + W, ud)
            chkpt
        }
        u = (u + ul + ur + uu + ud) / 5
        k = 0
        while k < WORK {
            u = (u * 31 + k) %% 1000003
            k = k + 1
        }
        it = it + 1
    }
}
`

const (
	recoverNproc        = 8
	recoverWork         = 150
	recoverLambda       = 1.0
	recoverIncarnations = 3
)

// transformRecoverJob transforms the recover workload's job.
func transformRecoverJob() (*core.Report, error) {
	return core.TransformSource(fmt.Sprintf(recoverSource, recoverWork), core.DefaultConfig)
}

// recoverRound is the number of jobs that share one write-ahead log. A
// round always ends after this many jobs, so every round ends with a log of
// the same size however fast the program is; a run repeats rounds, each on
// a fresh log.
const recoverRound = 40

// roundSchedules draws the crash schedules of round round. Each comes from
// chaos.CrashSchedule on its own seed, but the round takes them stratified
// by the number of crashes they schedule: as many with k crashes as
// recoverRound jobs drawn from the schedules' distribution (Poisson with
// mean λ × incarnations) would hold on average. A crash costs a recovery
// and a replay, so this keeps the work of a round the same from seed to
// seed while every job still gets a seeded schedule.
func (r *recoverLoad) roundSchedules(round int) [][]sim.Crash {
	mean := recoverLambda * recoverIncarnations
	var quota []int
	left, p := recoverRound, math.Exp(-mean)
	for k := 0; left > 0; k++ {
		q := int(math.Round(recoverRound * p))
		if q == 0 || q > left {
			q = left // the tail
		}
		quota = append(quota, q)
		left -= q
		p *= mean / float64(k+1)
	}
	seed := splitmix(r.seed, round)
	out := make([][]sim.Crash, 0, recoverRound)
	for i := 0; len(out) < recoverRound; i++ {
		c := chaos.CrashSchedule(splitmix(seed, i), chaos.ScheduleConfig{
			Nproc: recoverNproc, Lambda: recoverLambda, MaxIncarnations: recoverIncarnations,
		})
		if k := min(len(c), len(quota)-1); quota[k] > 0 {
			quota[k]--
			out = append(out, c)
		}
	}
	return out
}

// recoverLoad runs one sim.Run job at a time in a closed loop, each in its
// own storage.Namespace of one shared wal.Store, each with crashes. About
// half of a job's time is spent in the store, saving durably or reading
// for recovery; it is the only workload that selects recovery lines and
// scans the log with List.
type recoverLoad struct {
	seed   int64
	tmp    string // parent of the rounds' log directories
	dir    string // this setup's directory under tmp
	prog   *mpl.Program
	want   []map[string]int // FinalVars of a failure-free run
	rounds int
	stats  map[*phase]*recoverStats
}

type recoverStats struct {
	timer    *recoverTimer
	saves    int64 // saves through the timing wrapper
	calls    int64 // calls through the timing wrapper
	wal      wal.Stats
	rounds   int
	dirBytes int64
	metrics  struct {
		restarts, restartedEvents int64
		appMessages, checkpoints  int64
		pruneBytesSaved           int64
		blocked                   time.Duration
	}
}

func newRecover(seed int64, tmp string) *recoverLoad {
	return &recoverLoad{seed: seed, tmp: tmp, stats: make(map[*phase]*recoverStats)}
}

// setup transforms the program once, runs it once without failures for the
// reference final state, and makes the directory the logs live in.
func (r *recoverLoad) setup() error {
	rep, err := transformRecoverJob()
	if err != nil {
		return err
	}
	res, err := sim.Run(sim.Config{Program: rep.Program, Nproc: recoverNproc})
	if err != nil {
		return err
	}
	r.prog, r.want, r.rounds = rep.Program, res.FinalVars, 0
	if err := os.MkdirAll(r.tmp, 0o755); err != nil {
		return err
	}
	r.dir, err = os.MkdirTemp(r.tmp, "recover-")
	return err
}

func (r *recoverLoad) close() error {
	if r.dir == "" {
		return nil
	}
	return os.RemoveAll(r.dir)
}

// chunk runs one round: recoverRound jobs on a fresh log.
func (r *recoverLoad) chunk(ph *phase) error {
	st := r.stats[ph]
	if st == nil {
		st = &recoverStats{timer: newRecoverTimer(ph.tr)}
		r.stats[ph] = st
	}
	dir := filepath.Join(r.dir, fmt.Sprintf("wal-%d", r.rounds))
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	var base storage.Store = w
	if ph.tr != nil {
		st.timer.store = newTimedStore(w, ph.tr, st.timer.attr)
		base = st.timer.store.store()
	}
	for j, crashes := range r.roundSchedules(r.rounds) {
		if err := r.job(ph, st, base, j, crashes); err != nil {
			w.Close()
			return err
		}
	}
	if ph.tr != nil {
		st.saves += st.timer.store.saves.Load()
		st.calls += st.timer.store.calls.Load()
	}
	st.rounds++
	r.rounds++
	s := w.Stats()
	if err := w.Close(); err != nil {
		return err
	}
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	st.wal.Saves += s.Saves
	st.wal.Batches += s.Batches
	st.wal.Rotations += s.Rotations
	st.wal.Compactions += s.Compactions
	st.dirBytes += size
	// The log stays on disk until close: deleting files between rounds
	// would put the file system's discard work into the next round.
	return nil
}

// job runs job j of the round and checks its outcome.
func (r *recoverLoad) job(ph *phase, st *recoverStats, base storage.Store, j int, crashes []sim.Crash) error {
	op := r.rounds*recoverRound + j
	ns, err := storage.NewNamespace(base, j, recoverNproc)
	if err != nil {
		return err
	}
	sc := sim.Config{
		Program: r.prog,
		Nproc:   recoverNproc,
		Store:   ns,
		Crashes: crashes,
		Recover: st.timer.recoverFor(j),
	}
	root := -1
	if ph.tr != nil {
		root = ph.tr.open("recover.job", -1, op)
		st.timer.job.Store(int32(root))
		st.timer.op.Store(int32(op))
	}
	ph.begin()
	t0 := time.Now()
	res, err := sim.Run(sc)
	d := time.Since(t0)
	ph.call(d)
	ph.end(1)
	if ph.tr != nil {
		ph.tr.close(root)
	}
	if err == nil {
		err = r.check(res, crashes)
	}
	if err != nil {
		ph.failed++
		logf("recover: job %d: %v", op, err)
		return nil
	}
	st.metrics.restarts += int64(res.Restarts)
	st.metrics.restartedEvents += res.Metrics.RestartedEvents
	st.metrics.blocked += res.Metrics.Blocked
	st.metrics.appMessages += res.Metrics.AppMessages
	st.metrics.checkpoints += res.Metrics.Checkpoints
	st.metrics.pruneBytesSaved += res.Metrics.Custom[sim.MetricPruneBytesSaved]
	if ph.tr != nil {
		start := ph.tr.now()
		_, err := sim.Compile(r.prog)
		ph.tr.add("sim.compile", start, ph.tr.now(), -1, op)
		return err
	}
	return nil
}

// check compares a job's final state with the failure-free reference and
// requires a restart when a crash was scheduled in the first incarnation.
func (r *recoverLoad) check(res *sim.Result, crashes []sim.Crash) error {
	if !reflect.DeepEqual(res.FinalVars, r.want) {
		return fmt.Errorf("final state differs from the failure-free run")
	}
	for _, c := range crashes {
		if c.Inc == 0 && res.Restarts == 0 {
			return fmt.Errorf("crash scheduled at incarnation 0 but no restart")
		}
	}
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// layers reports spans and wrapper counts from the traced phase, and
// recovery timings and the program's own counters from the untraced one.
func (r *recoverLoad) layers(plain, traced *phase) map[string]float64 {
	pst, st, tr := r.stats[plain], r.stats[traced], traced.tr
	var recMS, first, last []float64
	var rollbacks, degraded int
	for _, c := range pst.timer.calls {
		recMS = append(recMS, c.ms)
		switch {
		case c.job < recoverRound/10:
			first = append(first, c.ms)
		case c.job >= recoverRound-recoverRound/10:
			last = append(last, c.ms)
		}
		rollbacks += c.rollbacks
		degraded += c.degraded
	}
	nrec := float64(len(pst.timer.calls))
	ntrec := float64(len(st.timer.calls))
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e6 }
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	return idle(map[string]float64{
		"store.save_us_p50":                us(tr.durations("store.save"), 0.5),
		"store.save_us_p99":                us(tr.durations("store.save"), 0.99),
		"store.list_us_p50":                us(tr.durations("store.list"), 0.5),
		"store.list_us_p99":                us(tr.durations("store.list"), 0.99),
		"store.saves_per_op":               traced.perOp(float64(st.saves)),
		"store.reads_per_op":               traced.perOp(float64(st.calls - st.saves)),
		"store.saves_per_s":                float64(pst.metrics.checkpoints) / plain.timed.Seconds(),
		"recovery.ms_p50":                  quantile(recMS, 0.5),
		"recovery.ms_p90":                  quantile(recMS, 0.9),
		"recovery.ms_growth":               quantile(last, 0.5) / quantile(first, 0.5),
		"recovery.rollbacks_per_call":      float64(rollbacks) / nrec,
		"recovery.degraded_per_call":       float64(degraded) / nrec,
		"recovery.store_calls_per_call":    float64(st.timer.storeOps) / ntrec,
		"recovery.snapshots_read_per_call": float64(st.timer.snapsRead) / ntrec,
		"sim.run_self_ms_p50":              ms(tr.selfTimes("recover.job"), 0.5),
		"sim.restarts_per_op":              plain.perOp(float64(pst.metrics.restarts)),
		"sim.restarted_events_per_op":      plain.perOp(float64(pst.metrics.restartedEvents)),
		"sim.app_messages_per_op":          plain.perOp(float64(pst.metrics.appMessages)),
		"sim.checkpoints_per_op":           plain.perOp(float64(pst.metrics.checkpoints)),
		"prune.bytes_saved_per_save":       float64(pst.metrics.pruneBytesSaved) / float64(pst.metrics.checkpoints),
		"sim.blocked_ms_per_op":            plain.perOp(float64(pst.metrics.blocked) / 1e6),
		"sim.compile_us_p50":               us(tr.durations("sim.compile"), 0.5),
		"wal.saves_per_batch":              float64(pst.wal.Saves) / float64(pst.wal.Batches),
		"wal.rotations":                    float64(pst.wal.Rotations) / float64(pst.rounds),
		"wal.compactions":                  float64(pst.wal.Compactions) / float64(pst.rounds),
		"wal.dir_bytes_per_save":           float64(pst.dirBytes) / float64(pst.wal.Saves),
	}, analyzeLayers, fleetLayers)
}
