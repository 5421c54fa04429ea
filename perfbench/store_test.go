package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func noAttr(int) (int, int) { return -1, 0 }

func TestTimedStoreForwardsScrubberOnlyWhenWrappedStoreHasIt(t *testing.T) {
	mem := newTimedStore(storage.NewMemory(), newTracer(), noAttr).store()
	if _, ok := mem.(storage.Scrubber); ok {
		t.Fatal("wrapper over a memory store claims to be a Scrubber")
	}
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := newTimedStore(w, newTracer(), noAttr).store()
	scr, ok := st.(storage.Scrubber)
	if !ok {
		t.Fatal("wrapper over a wal.Store hides its Scrubber")
	}
	if _, err := scr.Scrub(); err != nil {
		t.Fatal(err)
	}
}

// failing fails every call with err.
type failing struct{ err error }

func (f failing) Save(storage.Snapshot) error                 { return f.err }
func (f failing) Latest(int, int) (storage.Snapshot, error)   { return storage.Snapshot{}, f.err }
func (f failing) Get(int, int, int) (storage.Snapshot, error) { return storage.Snapshot{}, f.err }
func (f failing) List(int) ([]storage.Snapshot, error)        { return nil, f.err }
func (f failing) Indexes(int) ([]int, error)                  { return nil, f.err }
func (f failing) Delete(int, int, int) error                  { return f.err }
func (f failing) Scrub() (storage.ScrubReport, error)         { return storage.ScrubReport{}, f.err }

func TestTimedStoreReturnsErrorsUnchanged(t *testing.T) {
	for _, sentinel := range []error{storage.ErrTransient, storage.ErrCorrupt, storage.ErrFsync} {
		want := fmt.Errorf("inner: %w", sentinel)
		st := newTimedStore(failing{want}, newTracer(), noAttr).store()
		_, errLatest := st.Latest(0, 0)
		_, errGet := st.Get(0, 0, 0)
		_, errList := st.List(0)
		_, errIndexes := st.Indexes(1)
		_, errScrub := st.(storage.Scrubber).Scrub()
		for i, err := range []error{st.Save(storage.Snapshot{}), errLatest, errGet, errList, errIndexes, st.Delete(0, 0, 0), errScrub} {
			if err != want || !errors.Is(err, sentinel) {
				t.Errorf("%v: call %d returned %v", sentinel, i, err)
			}
		}
	}
}

// TestWrappersChangeNoBehaviour runs recover jobs on a write-ahead log with
// and without the traced store wrapper and the timed Recover, and requires
// the same final state and counts. A crash aborts the other processes of
// its incarnation wherever the scheduler left them, so on a job that
// crashes only the restart and rollback counts repeat from run to run; on
// a job that does not crash every count does.
func TestWrappersChangeNoBehaviour(t *testing.T) {
	rep, err := transformRecoverJob()
	if err != nil {
		t.Fatal(err)
	}
	run := func(job int, crashes []sim.Crash, traced bool) *sim.Result {
		w, err := wal.Open(t.TempDir(), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var base storage.Store = w
		sc := sim.Config{Program: rep.Program, Nproc: recoverNproc, Crashes: crashes}
		var timer *recoverTimer
		if traced {
			tr := newTracer()
			timer = newRecoverTimer(tr)
			timer.store = newTimedStore(w, tr, timer.attr)
			base = timer.store.store()
			sc.Recover = timer.recoverFor(job)
		}
		if sc.Store, err = storage.NewNamespace(base, job, recoverNproc); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sc)
		if err != nil {
			t.Fatalf("job %d (traced=%v): %v", job, traced, err)
		}
		if traced && len(timer.calls) != res.Restarts {
			t.Errorf("job %d: timed Recover ran %d times for %d restarts", job, len(timer.calls), res.Restarts)
		}
		return res
	}
	var crashed, clean int
	for job := 0; job < 6; job++ {
		crashes := chaos.CrashSchedule(int64(job)+1, chaos.ScheduleConfig{
			Nproc: recoverNproc, Lambda: recoverLambda, MaxIncarnations: recoverIncarnations,
		})
		plain, traced := run(job, crashes, false), run(job, crashes, true)
		if !reflect.DeepEqual(plain.FinalVars, traced.FinalVars) {
			t.Errorf("job %d: final state differs through the wrappers", job)
		}
		counts := func(r *sim.Result) []any {
			c := []any{r.Restarts, r.RolledBack, r.Metrics.Rollbacks, r.Metrics.Forced}
			if r.Restarts == 0 {
				c = append(c, r.Metrics.AppMessages, r.Metrics.Checkpoints, r.Metrics.Custom)
			}
			return c
		}
		if a, b := counts(plain), counts(traced); !reflect.DeepEqual(a, b) {
			t.Errorf("job %d: counts differ through the wrappers:\n plain  %v\n traced %v", job, a, b)
		}
		if plain.Restarts > 0 {
			crashed++
		} else {
			clean++
		}
	}
	if crashed == 0 || clean == 0 {
		t.Fatalf("want jobs with and without crashes, got %d and %d", crashed, clean)
	}
}
