package repro_test

// Soak coverage: the paper's safety theorem exercised across random
// programs, process counts, schedules, and crash points simultaneously.
// -short runs a trimmed matrix; bounded to keep the default suite fast.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mpl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/zigzag"
)

func TestSoakTransformedRandomPrograms(t *testing.T) {
	// -short trims the matrix rather than skipping: a handful of seeds at
	// two process counts still walks the whole transform-run-check-crash
	// path, so a quick `go test -short` cannot silently rot it.
	lastSeed, budget, nprocs := int64(140), 45*time.Second, []int{2, 4, 7}
	if testing.Short() {
		lastSeed, budget, nprocs = 104, 10*time.Second, []int{2, 4}
	}
	input := func(rank, i int) int { return 3*rank + i }
	deadline := time.Now().Add(budget)
	seeds := 0
	for seed := int64(100); seed < lastSeed && time.Now().Before(deadline); seed++ {
		seeds++
		prog := corpus.Random(seed)
		rep, err := core.Transform(prog, core.DefaultConfig)
		if err != nil {
			t.Fatalf("seed %d: transform: %v\n%s", seed, err, mpl.Format(prog))
		}
		for _, n := range nprocs {
			// Clean run under a seeded schedule perturbation.
			clean, err := sim.Run(sim.Config{
				Program: rep.Program, Nproc: n, Input: input,
				Jitter: seed, Timeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("seed %d n=%d: %v\n%s", seed, n, err, mpl.Format(rep.Program))
			}
			// Theorem 3.2 on the trace.
			for _, idx := range clean.Trace.CheckpointIndexes() {
				cut, err := clean.Trace.StraightCut(idx)
				if err != nil {
					continue
				}
				if !trace.IsRecoveryLine(cut) {
					t.Fatalf("seed %d n=%d: R_%d violated\n%s",
						seed, n, idx, mpl.Format(rep.Program))
				}
			}
			// No useless checkpoints.
			zz, err := zigzag.FromTrace(clean.Trace)
			if err != nil {
				t.Fatalf("seed %d n=%d: %v", seed, n, err)
			}
			if u := zz.Useless(); len(u) != 0 {
				t.Fatalf("seed %d n=%d: useless checkpoints %v", seed, n, u)
			}
			// Crash at two different points: identical results.
			for _, after := range []int{7, 19} {
				crashed, err := sim.Run(sim.Config{
					Program: rep.Program, Nproc: n, Input: input,
					Crashes: []sim.Crash{{Proc: int(seed+int64(after)) % n, AfterEvents: after}},
					Jitter:  seed + int64(after),
					Timeout: 20 * time.Second,
				})
				if err != nil {
					t.Fatalf("seed %d n=%d after=%d: %v", seed, n, after, err)
				}
				if !reflect.DeepEqual(clean.FinalVars, crashed.FinalVars) {
					t.Fatalf("seed %d n=%d after=%d: crash run diverged", seed, n, after)
				}
			}
		}
	}
	t.Logf("soaked %d random programs", seeds)
}
