package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func TestRetryPolicyDefaults(t *testing.T) {
	tests := []struct {
		name string
		in   retryPolicy
		want retryPolicy
	}{
		{
			name: "zero value selects the documented defaults",
			in:   retryPolicy{},
			want: retryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, JitterFrac: 0.5},
		},
		{
			name: "negative fields also select defaults",
			in:   retryPolicy{MaxAttempts: -1, BaseDelay: -time.Second, MaxDelay: -time.Second},
			want: retryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, JitterFrac: 0.5},
		},
		{
			name: "negative jitter disables jitter",
			in:   retryPolicy{JitterFrac: -1},
			want: retryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, JitterFrac: 0},
		},
		{
			name: "explicit fields survive",
			in:   retryPolicy{MaxAttempts: 2, BaseDelay: 3 * time.Millisecond, MaxDelay: 9 * time.Millisecond, JitterFrac: 0.25},
			want: retryPolicy{MaxAttempts: 2, BaseDelay: 3 * time.Millisecond, MaxDelay: 9 * time.Millisecond, JitterFrac: 0.25},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.in.withDefaults()
			got.Budget = nil
			if got != tt.want {
				t.Errorf("withDefaults() = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	tests := []struct {
		name   string
		policy retryPolicy
		retry  int
		want   time.Duration
	}{
		{"default first retry", retryPolicy{}, 1, time.Millisecond},
		{"default doubles", retryPolicy{}, 2, 2 * time.Millisecond},
		{"default keeps doubling", retryPolicy{}, 5, 16 * time.Millisecond},
		{"default hits cap", retryPolicy{}, 7, 50 * time.Millisecond},
		{"default stays at cap", retryPolicy{}, 100, 50 * time.Millisecond},
		{"custom base", retryPolicy{BaseDelay: 4 * time.Millisecond}, 2, 8 * time.Millisecond},
		{"custom cap clamps", retryPolicy{BaseDelay: 4 * time.Millisecond, MaxDelay: 5 * time.Millisecond}, 2, 5 * time.Millisecond},
		{"base above cap clamps immediately", retryPolicy{BaseDelay: time.Second, MaxDelay: 10 * time.Millisecond}, 1, 10 * time.Millisecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.policy.backoff(tt.retry); got != tt.want {
				t.Errorf("backoff(%d) = %v, want %v", tt.retry, got, tt.want)
			}
		})
	}
}

func TestRetryStoreHonorsAttemptCap(t *testing.T) {
	for _, attempts := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("attempts=%d", attempts), func(t *testing.T) {
			var calls atomic.Int64
			st := &countingTransient{calls: &calls}
			c := &metrics.Counters{}
			rst := newRetryStore(st, retryPolicy{
				MaxAttempts: attempts,
				BaseDelay:   time.Microsecond,
				MaxDelay:    time.Microsecond,
				JitterFrac:  -1,
			}, 1, c, nil)
			_, err := rst.Latest(0, 1)
			if !errors.Is(err, storage.ErrTransient) {
				t.Fatalf("err = %v, want wrapped ErrTransient", err)
			}
			if got := calls.Load(); got != int64(attempts) {
				t.Errorf("inner store called %d times, want %d", got, attempts)
			}
			snap := c.Snapshot()
			if got := snap.Custom[MetricStoreRetries]; got != int64(attempts-1) {
				t.Errorf("%s = %d, want %d", MetricStoreRetries, got, attempts-1)
			}
			if got := snap.Custom[MetricStoreRetryExhausted]; got != 1 {
				t.Errorf("%s = %d, want 1", MetricStoreRetryExhausted, got)
			}
		})
	}
}

// fixedBudget allows the first n retries and denies the rest.
type fixedBudget struct{ left atomic.Int64 }

func (b *fixedBudget) AllowRetry(op string) bool {
	return b.left.Add(-1) >= 0
}

func TestRetryBudgetDenialStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	st := &countingTransient{calls: &calls}
	budget := &fixedBudget{}
	budget.left.Store(2)
	c := &metrics.Counters{}
	rst := newRetryStore(st, retryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		JitterFrac:  -1,
		Budget:      budget,
	}, 1, c, nil)
	_, err := rst.Latest(0, 1)
	if !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", err)
	}
	// 1 initial try + 2 funded retries; the third retry is denied.
	if got := calls.Load(); got != 3 {
		t.Errorf("inner store called %d times, want 3", got)
	}
	snap := c.Snapshot()
	if got := snap.Custom[MetricStoreRetryDenied]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricStoreRetryDenied, got)
	}
	if got := snap.Custom[MetricStoreRetryExhausted]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricStoreRetryExhausted, got)
	}
	if got := snap.Custom[MetricStoreRetries]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricStoreRetries, got)
	}
}

func TestRetryBudgetNotChargedOnSuccess(t *testing.T) {
	budget := &fixedBudget{}
	budget.left.Store(100)
	rst := newRetryStore(storage.NewMemory(), retryPolicy{Budget: budget}, 1, &metrics.Counters{}, nil)
	if err := rst.Save(storage.Snapshot{Proc: 0, CFGIndex: 1, Instance: 1, Clock: vclock.VC{1}}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := budget.left.Load(); got != 100 {
		t.Errorf("budget charged %d retries for a first-try success", 100-got)
	}
}

// countingTransient fails every operation transiently and counts calls.
type countingTransient struct {
	storage.Store
	calls *atomic.Int64
}

func (c *countingTransient) Latest(proc, idx int) (storage.Snapshot, error) {
	c.calls.Add(1)
	return storage.Snapshot{}, fmt.Errorf("%w: down", storage.ErrTransient)
}
