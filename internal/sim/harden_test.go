package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage"
)

// flakyStore fails the next `fails` Save calls with storage.ErrTransient,
// then behaves normally — the minimal model of a storage brown-out.
type flakyStore struct {
	storage.Store
	fails int64
}

func (f *flakyStore) Save(s storage.Snapshot) error {
	if atomic.AddInt64(&f.fails, -1) >= 0 {
		return fmt.Errorf("%w: injected save fault", storage.ErrTransient)
	}
	return f.Store.Save(s)
}

func TestRetryRecoversTransientSaveFaults(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	flaky := &flakyStore{Store: storage.NewMemory(), fails: 2}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = flaky
	})
	if res.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (retry should absorb the faults)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricStoreRetries]; got < 2 {
		t.Errorf("%s = %d, want >= 2", MetricStoreRetries, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("flaky-store run diverged:\nclean: %v\nflaky: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestExhaustedSaveBecomesCrashAndRecovers(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	// Every retry denied: each injected fault immediately exhausts its
	// save, which must surface as a process crash followed by ordinary
	// recovery — never as a failed run.
	flaky := &flakyStore{Store: storage.NewMemory(), fails: 2}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = flaky
		c.RetryBudget = &fixedBudget{}
		c.MaxRestarts = 5
	})
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1 (save outage must crash the process)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricStoreRetryExhausted]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricStoreRetryExhausted, got)
	}
	if got := res.Metrics.Custom[MetricSaveCrashes]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricSaveCrashes, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("save-outage run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

// fsyncFailStore fails the next `fails` Save calls with storage.ErrFsync —
// the fsyncgate failure mode, where the fsync error is permanent because
// the kernel may already have dropped the dirty pages.
type fsyncFailStore struct {
	storage.Store
	fails    int64
	attempts atomic.Int64
}

func (f *fsyncFailStore) Save(s storage.Snapshot) error {
	f.attempts.Add(1)
	if atomic.AddInt64(&f.fails, -1) >= 0 {
		return fmt.Errorf("%w: injected fsync failure", storage.ErrFsync)
	}
	return f.Store.Save(s)
}

// TestFsyncFailureCrashesWithoutRetry pins the fsyncgate semantics: a Save
// failing with ErrFsync must NOT be retried as if transient — it becomes a
// process crash immediately, and the run recovers through the ordinary
// rollback path to the same final state.
func TestFsyncFailureCrashesWithoutRetry(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	st := &fsyncFailStore{Store: storage.NewMemory(), fails: 1}
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = st
		c.MaxRestarts = 5
	})
	if res.Restarts < 1 {
		t.Fatalf("restarts = %d, want >= 1 (fsync failure must crash the process)", res.Restarts)
	}
	if got := res.Metrics.Custom[MetricSaveCrashes]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricSaveCrashes, got)
	}
	// The one failed save must not have been retried: every attempt past
	// the first belongs to replay after recovery, not backoff.
	if got := res.Metrics.Custom[MetricStoreRetries]; got != 0 {
		t.Errorf("%s = %d, want 0 — ErrFsync was retried as if transient", MetricStoreRetries, got)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("fsync-failure run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestConcurrentCrashesConverge(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	res := runOK(t, p, 4, func(c *Config) {
		c.Crashes = []Crash{
			{Inc: 0, Proc: 0, AfterEvents: 6},
			{Inc: 0, Proc: 2, AfterEvents: 6},
		}
	})
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (both crashes fall in one incarnation)", res.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("concurrent-crash run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

func TestCrashDuringRecoveryConverges(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	// The second crash strikes incarnation 1 — while the application is
	// still replaying from the first recovery line.
	res := runOK(t, p, 4, func(c *Config) {
		c.Crashes = []Crash{
			{Inc: 0, Proc: 1, AfterEvents: 10},
			{Inc: 1, Proc: 2, AfterEvents: 6},
		}
	})
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("crash-during-recovery run diverged:\nclean: %v\ngot: %v", clean.FinalVars, res.FinalVars)
	}
}

// corruptReads serves every checkpoint as corrupt: a crash can then only
// recover from the initial state.
type corruptReads struct{ storage.Store }

func (c corruptReads) Get(proc, idx, inst int) (storage.Snapshot, error) {
	return storage.Snapshot{}, fmt.Errorf("%w: rotted", storage.ErrCorrupt)
}

func (c corruptReads) Latest(proc, idx int) (storage.Snapshot, error) {
	return storage.Snapshot{}, fmt.Errorf("%w: rotted", storage.ErrCorrupt)
}

// TestRestartFromScratchCountsDegradation pins the bottom rung of the
// degradation ladder: when no saved cut loads, the restart from the
// initial state is still reported as a degraded recovery.
func TestRestartFromScratchCountsDegradation(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 4)
	rec := obs.NewRecorder()
	res := runOK(t, p, 4, func(c *Config) {
		c.Store = corruptReads{storage.NewMemory()}
		c.Crashes = []Crash{{Proc: 1, AfterEvents: 20}}
		c.Observer = rec
	})
	if res.Restarts != 1 || res.RolledBack != 0 {
		t.Fatalf("restarts = %d, rolled back = %d, want one restart from scratch", res.Restarts, res.RolledBack)
	}
	if got := res.Metrics.Custom[MetricRecoveryDegraded]; got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricRecoveryDegraded, got)
	}
	degradedEvents := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.KindDegraded {
			degradedEvents++
		}
	}
	if degradedEvents != 1 {
		t.Errorf("%d degraded events, want 1", degradedEvents)
	}
	if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
		t.Errorf("run diverged: %v vs %v", clean.FinalVars, res.FinalVars)
	}
}

// rollbackLabels records the Label of every rollback event: the error
// that crashed the incarnation.
type rollbackLabels struct {
	mu     sync.Mutex
	labels []string
}

func (r *rollbackLabels) OnEvent(e obs.Event) {
	if e.Kind != obs.KindRollback {
		return
	}
	r.mu.Lock()
	r.labels = append(r.labels, e.Label)
	r.mu.Unlock()
}

func TestCrashValidation(t *testing.T) {
	p := corpus.JacobiFig1(4)
	clean := runOK(t, p, 3)
	tm := &TimeModel{Compute: 1}
	tests := []struct {
		name    string
		crashes []Crash
		time    *TimeModel
		// wantErr is a substring of Run's error; empty means the run must
		// recover once from a crash whose label contains wantCrash.
		wantErr, wantCrash string
	}{
		{name: "proc out of range", crashes: []Crash{{Proc: 7, AfterEvents: 1}},
			wantErr: "process 7 of 3"},
		{name: "negative inc", crashes: []Crash{{Inc: -1, Proc: 1, AfterEvents: 1}},
			wantErr: "incarnation -1"},
		{name: "negative trigger", crashes: []Crash{{Proc: 1, AfterEvents: -3}},
			wantErr: "negative trigger"},
		{name: "At without Time", crashes: []Crash{{Proc: 1, At: 1}},
			wantErr: "requires Config.Time"},
		{name: "At with AfterEvents", crashes: []Crash{{Proc: 1, AfterEvents: 4, At: 1}}, time: tm,
			wantErr: "both At and AfterEvents"},
		{name: "earliest trigger wins", crashes: []Crash{{Proc: 1, AfterEvents: 20}, {Proc: 1, AfterEvents: 4}},
			wantCrash: "process 1 after 4 events"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rec := &rollbackLabels{}
			res, err := Run(Config{
				Program: p, Nproc: 3, Time: tt.time, Crashes: tt.crashes,
				Observer: rec, Timeout: 5 * time.Second,
			})
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Restarts != 1 || len(rec.labels) != 1 || !strings.Contains(rec.labels[0], tt.wantCrash) {
				t.Fatalf("restarts = %d, rollbacks = %q, want one containing %q", res.Restarts, rec.labels, tt.wantCrash)
			}
			if !reflect.DeepEqual(clean.FinalVars, res.FinalVars) {
				t.Errorf("run diverged: %v vs %v", clean.FinalVars, res.FinalVars)
			}
		})
	}
}

func TestRetryExhaustionOnReadIsNotMaskedAsCrash(t *testing.T) {
	// Only checkpoint SAVES convert exhaustion into a crash; transient
	// exhaustion elsewhere still surfaces the typed error to the caller.
	inner := storage.NewMemory()
	rst := newRetryStore(&alwaysTransient{inner}, retryPolicy{MaxAttempts: 3}, 1, &metrics.Counters{}, nil)
	if _, err := rst.Latest(0, 1); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
}

// alwaysTransient fails every operation transiently.
type alwaysTransient struct{ storage.Store }

func (a *alwaysTransient) Latest(proc, idx int) (storage.Snapshot, error) {
	return storage.Snapshot{}, fmt.Errorf("%w: down", storage.ErrTransient)
}
