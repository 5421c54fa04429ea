package sim_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestObserverMirrorsTrace runs a clean execution and checks the observer
// stream carries exactly the trace's sends, receives, and checkpoints,
// with matching vector clocks.
func TestObserverMirrorsTrace(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[obs.Kind]int{}
	for _, h := range res.Trace.Events() {
		for _, e := range h {
			switch e.Kind {
			case trace.KindSend:
				want[obs.KindSend]++
			case trace.KindRecv:
				want[obs.KindRecv]++
			case trace.KindCheckpoint:
				want[obs.KindChkpt]++
			case trace.KindCompute:
				want[obs.KindCompute]++
			}
		}
	}
	got := map[obs.Kind]int{}
	for _, e := range rec.Events() {
		got[e.Kind]++
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%s events = %d, want %d (trace)", kind, got[kind], n)
		}
	}
	if got[obs.KindHalt] != 4 {
		t.Errorf("halt events = %d, want one per process", got[obs.KindHalt])
	}
	// Clean run: no recovery lifecycle events, single incarnation.
	if got[obs.KindRollback] != 0 || got[obs.KindRestart] != 0 {
		t.Errorf("clean run has recovery events: %v", got)
	}
	for _, e := range rec.Events() {
		if e.Inc != 0 {
			t.Fatalf("clean run event in incarnation %d: %+v", e.Inc, e)
		}
		if e.Kind == obs.KindSend && e.Msg == nil {
			t.Fatalf("send without msg ref: %+v", e)
		}
		if e.Kind == obs.KindChkpt && (e.Chkpt == nil || len(e.VClock) != 4) {
			t.Fatalf("chkpt missing ref or clock: %+v", e)
		}
	}
}

// TestObserverSpansIncarnations injects a failure and checks the stream
// records the rollback, the restart, and events from both incarnations —
// the trace alone only keeps the final one.
func TestObserverSpansIncarnations(t *testing.T) {
	rec := obs.NewRecorder()
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(3),
		Nproc:    4,
		Crashes:  []sim.Crash{{Proc: 1, AfterEvents: 8}},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	incs := map[int]int{}
	var rollbacks, restarts int
	for _, e := range rec.Events() {
		incs[e.Inc]++
		switch e.Kind {
		case obs.KindRollback:
			rollbacks++
			if e.Proc != -1 || e.Label == "" {
				t.Errorf("rollback event = %+v", e)
			}
		case obs.KindRestart:
			restarts++
		}
	}
	if rollbacks != 1 || restarts != 1 {
		t.Errorf("rollbacks=%d restarts=%d, want 1/1", rollbacks, restarts)
	}
	if incs[0] == 0 || incs[1] == 0 {
		t.Errorf("incarnation coverage = %v, want events in both", incs)
	}
}

// TestBlockedTimeAccounting runs SaS under virtual time and checks barrier
// stalls surface in all three sinks: the blocked-time counter, the
// distributions, and block events on the observer.
func TestBlockedTimeAccounting(t *testing.T) {
	rec := obs.NewRecorder()
	tm := sim.PaperTimeModel
	res, err := sim.Run(sim.Config{
		Program:  corpus.JacobiFig1(2),
		Nproc:    4,
		Hooks:    protocol.SaS(0),
		Time:     &tm,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Blocked <= 0 {
		t.Error("SaS run recorded no blocked wall time")
	}
	wall, okWall := res.Metrics.Hists[sim.HistBlockedWallMS]
	if !okWall || wall.Count == 0 {
		t.Errorf("no %s distribution: %v", sim.HistBlockedWallMS, res.Metrics.Hists)
	}
	stall, okStall := res.Metrics.Hists[sim.HistBarrierStallV]
	if !okStall || stall.Count == 0 {
		t.Errorf("no %s distribution: %v", sim.HistBarrierStallV, res.Metrics.Hists)
	}
	if save := res.Metrics.Hists[sim.HistChkptSaveMS]; save.Count != res.Metrics.TotalCheckpoints() {
		t.Errorf("%s count = %d, want %d checkpoints", sim.HistChkptSaveMS, save.Count, res.Metrics.TotalCheckpoints())
	}
	blocks := 0
	for _, e := range rec.Events() {
		if e.Kind == obs.KindBlock {
			blocks++
			if e.Tag != "ctrl" {
				t.Errorf("block event tag = %q", e.Tag)
			}
		}
	}
	if blocks == 0 {
		t.Error("no block events observed")
	}
	// The coordination-free scheme must stay free of all of it.
	free, err := sim.Run(sim.Config{Program: corpus.JacobiFig1(2), Nproc: 4, Time: &tm})
	if err != nil {
		t.Fatal(err)
	}
	if free.Metrics.Blocked != 0 {
		t.Errorf("appl-driven blocked = %v, want 0", free.Metrics.Blocked)
	}
	if _, ok := free.Metrics.Hists[sim.HistBarrierStallV]; ok {
		t.Error("appl-driven run recorded barrier stalls")
	}
}
