package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/trace"
)

func TestStencil2DRunsOnGrids(t *testing.T) {
	for _, tc := range []struct{ width, nproc int }{
		{3, 9},  // exact 3x3
		{3, 7},  // ragged last row
		{4, 8},  // 2 rows
		{2, 2},  // single row
		{5, 5},  // single full row
		{4, 10}, // ragged
	} {
		p := corpus.Stencil2D(tc.width, 3)
		res := runOK(t, p, tc.nproc)
		if err := trace.Validate(res.Trace); err != nil {
			t.Fatalf("w=%d n=%d: %v", tc.width, tc.nproc, err)
		}
		checkStraightCuts(t, res.Trace, true)
		// Determinism across runs.
		again := runOK(t, p, tc.nproc)
		if !reflect.DeepEqual(res.FinalVars, again.FinalVars) {
			t.Fatalf("w=%d n=%d: nondeterministic", tc.width, tc.nproc)
		}
	}
}

func TestStencilSkewedViolatesThenRepairs(t *testing.T) {
	p := corpus.StencilSkewed(3, 3)
	// The defect is real: column-parity-skewed checkpoints break straight
	// cuts on an actual run.
	res := runOK(t, p, 9)
	violated := false
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			continue
		}
		if !trace.IsRecoveryLine(cut) {
			violated = true
		}
	}
	if !violated {
		t.Fatal("skewed stencil should violate straight cuts")
	}
	// Static analysis agrees.
	violations, err := core.Verify(p, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("Verify missed the skewed-stencil violation")
	}
	// Phase III repairs it; the repaired program runs consistently and
	// survives crashes with identical results.
	rep, err := core.Transform(p, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	clean := runOK(t, rep.Program, 9)
	checkStraightCuts(t, clean.Trace, true)
	crashed := runOK(t, rep.Program, 9, func(c *Config) {
		c.Crashes = []Crash{{Proc: 4, AfterEvents: 30}}
	})
	if crashed.Restarts != 1 {
		t.Fatalf("restarts = %d", crashed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, crashed.FinalVars) {
		t.Error("stencil crash run diverged")
	}
}

func TestStencilSkewedWidth4(t *testing.T) {
	// A different width exercises different modulo attributes.
	p := corpus.StencilSkewed(4, 2)
	rep, err := core.Transform(p, core.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	res := runOK(t, rep.Program, 8)
	checkStraightCuts(t, res.Trace, true)
}
