package main

import (
	"sync/atomic"
	"time"

	"repro/internal/recovery"
	"repro/internal/storage"
)

// timedStore wraps a storage.Store from the outside: every call is forwarded
// unchanged, results and errors included, and recorded as a span. attr
// names the span that caused a call on proc (-1 when the call names no
// process) and the op the call belongs to.
type timedStore struct {
	inner storage.Store
	tr    *tracer
	attr  func(proc int) (parent, op int)

	saves     atomic.Int64 // acknowledged saves
	calls     atomic.Int64 // every call
	snapshots atomic.Int64 // snapshots returned by Get, Latest and List
}

func newTimedStore(inner storage.Store, tr *tracer, attr func(proc int) (parent, op int)) *timedStore {
	return &timedStore{inner: inner, tr: tr, attr: attr}
}

// store returns ts as a storage.Store that also implements
// storage.Scrubber exactly when the wrapped store does, so layers above it
// (storage.Namespace, the runtime's scrub before rollback) behave as they
// would without the wrapper.
func (ts *timedStore) store() storage.Store {
	if _, ok := ts.inner.(storage.Scrubber); ok {
		return scrubbingStore{ts}
	}
	return ts
}

func (ts *timedStore) record(name string, proc int, start int64) {
	parent, op := ts.attr(proc)
	ts.tr.add(name, start, ts.tr.now(), parent, op)
	ts.calls.Add(1)
}

func (ts *timedStore) Save(s storage.Snapshot) error {
	start := ts.tr.now()
	err := ts.inner.Save(s)
	ts.record("store.save", s.Proc, start)
	if err == nil {
		ts.saves.Add(1)
	}
	return err
}

func (ts *timedStore) Latest(proc, cfgIndex int) (storage.Snapshot, error) {
	start := ts.tr.now()
	s, err := ts.inner.Latest(proc, cfgIndex)
	ts.record("store.latest", proc, start)
	if err == nil {
		ts.snapshots.Add(1)
	}
	return s, err
}

func (ts *timedStore) Get(proc, cfgIndex, instance int) (storage.Snapshot, error) {
	start := ts.tr.now()
	s, err := ts.inner.Get(proc, cfgIndex, instance)
	ts.record("store.get", proc, start)
	if err == nil {
		ts.snapshots.Add(1)
	}
	return s, err
}

func (ts *timedStore) List(proc int) ([]storage.Snapshot, error) {
	start := ts.tr.now()
	snaps, err := ts.inner.List(proc)
	ts.record("store.list", proc, start)
	ts.snapshots.Add(int64(len(snaps)))
	return snaps, err
}

func (ts *timedStore) Indexes(n int) ([]int, error) {
	start := ts.tr.now()
	idx, err := ts.inner.Indexes(n)
	ts.record("store.indexes", -1, start)
	return idx, err
}

func (ts *timedStore) Delete(proc, cfgIndex, instance int) error {
	start := ts.tr.now()
	err := ts.inner.Delete(proc, cfgIndex, instance)
	ts.record("store.delete", proc, start)
	return err
}

// scrubbingStore is a timedStore over a store that implements
// storage.Scrubber.
type scrubbingStore struct{ *timedStore }

func (s scrubbingStore) Scrub() (storage.ScrubReport, error) {
	start := s.tr.now()
	rep, err := s.inner.(storage.Scrubber).Scrub()
	s.record("store.scrub", -1, start)
	return rep, err
}

// recoverTimer is a sim.Config.Recover that calls recovery.StraightCut,
// the runtime's default, and times each call. With a tracer it also records
// a "recovery" span that store spans made during the call hang under.
type recoverTimer struct {
	tr    *tracer      // nil: time only
	store *timedStore  // with a tracer, the traced store below the namespaces
	job   atomic.Int32 // span id of the running job
	op    atomic.Int32 // op id of the running job
	inRec atomic.Int32 // span id of the running recovery, -1 outside one

	calls     []recoveryCall
	storeOps  int64 // store calls made inside recovery
	snapsRead int64 // snapshots those calls returned
}

// recoveryCall is one recovery-line selection.
type recoveryCall struct {
	job       int // index of the job inside its round
	ms        float64
	rollbacks int
	degraded  int
}

func newRecoverTimer(tr *tracer) *recoverTimer {
	r := &recoverTimer{tr: tr}
	r.inRec.Store(-1)
	return r
}

// attr attributes a store call to the running recovery, or else to the
// running job.
func (r *recoverTimer) attr(int) (parent, op int) {
	if id := r.inRec.Load(); id >= 0 {
		return int(id), int(r.op.Load())
	}
	return int(r.job.Load()), int(r.op.Load())
}

// recoverFor returns the Recover function for the job with index job in
// its round.
func (r *recoverTimer) recoverFor(job int) func(storage.Store, int) (*recovery.Line, error) {
	return func(st storage.Store, n int) (*recovery.Line, error) {
		var calls0, snaps0 int64
		if r.tr != nil {
			r.inRec.Store(int32(r.tr.open("recovery", int(r.job.Load()), int(r.op.Load()))))
			calls0, snaps0 = r.store.calls.Load(), r.store.snapshots.Load()
		}
		start := time.Now()
		line, err := recovery.StraightCut(st, n)
		c := recoveryCall{job: job, ms: float64(time.Since(start)) / 1e6}
		if r.tr != nil {
			r.tr.close(int(r.inRec.Load()))
			r.inRec.Store(-1)
			r.storeOps += r.store.calls.Load() - calls0
			r.snapsRead += r.store.snapshots.Load() - snaps0
		}
		if line != nil {
			c.rollbacks, c.degraded = line.Rollbacks, line.Degraded
		}
		r.calls = append(r.calls, c)
		return line, err
	}
}
