package sim

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/trace"
)

func TestReduceSemantics(t *testing.T) {
	src := `
program red
var v
proc {
    v = rank + 1
    chkpt
    reduce(2, v)
}
`
	p := mustParseProg(t, src)
	res := runOK(t, p, 4)
	// Root (rank 2) holds 1+2+3+4 = 10; others keep their value.
	if got := res.FinalVars[2]["v"]; got != 10 {
		t.Errorf("root v = %d, want 10", got)
	}
	for _, r := range []int{0, 1, 3} {
		if got := res.FinalVars[r]["v"]; got != r+1 {
			t.Errorf("rank %d v = %d, want %d (non-roots keep their value)", r, got, r+1)
		}
	}
	if err := trace.Validate(res.Trace); err != nil {
		t.Fatal(err)
	}
	// n-1 application messages.
	if res.Metrics.AppMessages != 3 {
		t.Errorf("app messages = %d, want 3", res.Metrics.AppMessages)
	}
}

func TestReduceParsesAndFormats(t *testing.T) {
	src := "program r\nvar v\nproc { reduce(nproc - 1, v) }"
	p, err := mpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := mpl.Format(p)
	p2, err := mpl.Parse(out)
	if err != nil {
		t.Fatalf("reduce does not round-trip: %v\n%s", err, out)
	}
	if mpl.Format(p2) != out {
		t.Error("format not idempotent with reduce")
	}
	red, ok := p.Body[0].(*mpl.Reduce)
	if !ok || mpl.ExprString(red.Root) != "nproc - 1" || red.Var != "v" {
		t.Errorf("parsed reduce = %+v", p.Body[0])
	}
}

func TestAllReduceMatchesRecurrence(t *testing.T) {
	res := runOK(t, corpus.AllReduce(3), 4)
	// acc_i(k+1) = acc_i(k) + Σ_j acc_j(k), starting from acc_i = i+1:
	// every rank adds the SAME global sum each round, so the per-rank
	// offsets persist while the totals agree.
	acc := []int{1, 2, 3, 4}
	for round := 0; round < 3; round++ {
		sum := 0
		for _, a := range acc {
			sum += a
		}
		for i := range acc {
			acc[i] += sum
		}
	}
	for r, vars := range res.FinalVars {
		if vars["acc"] != acc[r] {
			t.Errorf("rank %d acc = %d, want %d", r, vars["acc"], acc[r])
		}
		// All ranks saw the same final broadcast total.
		if vars["tot"] != res.FinalVars[0]["tot"] {
			t.Errorf("rank %d tot = %d, want %d", r, vars["tot"], res.FinalVars[0]["tot"])
		}
	}
	checkStraightCuts(t, res.Trace, true)
}

func TestAllReduceSurvivesFailure(t *testing.T) {
	p := corpus.AllReduce(3)
	clean := runOK(t, p, 4)
	failed := runOK(t, p, 4, func(c *Config) {
		c.Crashes = []Crash{{Proc: 0, AfterEvents: 15}} // the reduce root itself
	})
	if failed.Restarts != 1 {
		t.Fatalf("restarts = %d", failed.Restarts)
	}
	if !reflect.DeepEqual(clean.FinalVars, failed.FinalVars) {
		t.Error("allreduce diverged after root crash")
	}
}

func TestReduceRootOutOfRange(t *testing.T) {
	p := mustParseProg(t, "program r\nvar v\nproc { reduce(7, v) }")
	if _, err := Run(Config{Program: p, Nproc: 2}); err == nil {
		t.Fatal("out-of-range reduce root accepted")
	}
}
