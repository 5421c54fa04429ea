// Stencil runs a five-point 2D stencil on a process grid — the
// bread-and-butter HPC workload behind the paper's Jacobi example — with a
// column-skewed checkpoint placement: even columns checkpoint before the
// halo exchange, odd columns after. Straight cuts of checkpoints are then
// NOT recovery lines (demonstrated on a real execution and by the static
// analysis); Phase III repairs the placement, the zigzag analysis
// certifies every checkpoint useful, and a crash at the grid center
// recovers to bit-identical results.
package main

import (
	"fmt"
	"log"
	"reflect"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/zigzag"
)

func main() {
	const width, iters, n = 3, 3, 9
	skewed := corpus.StencilSkewed(width, iters)

	fmt.Println("=== skewed placement (even columns checkpoint before the exchange) ===")
	res, err := sim.Run(sim.Config{Program: skewed, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	bad := 0
	for _, idx := range res.Trace.CheckpointIndexes() {
		cut, err := res.Trace.StraightCut(idx)
		if err != nil {
			continue
		}
		if !trace.IsRecoveryLine(cut) {
			bad++
		}
	}
	fmt.Printf("straight cuts violated on a real run: %d\n", bad)
	violations, err := core.Verify(skewed, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static analysis violations: %d\n", len(violations))

	fmt.Println()
	fmt.Println("=== after Phase III ===")
	rep, err := core.Transform(skewed, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range rep.Phase3.Moves {
		fmt.Println("move:", m.Reason)
	}
	clean, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := zigzag.FromTrace(clean.Trace)
	if err != nil {
		log.Fatal(err)
	}
	stats := analysis.Stats()
	fmt.Printf("checkpoints: %d, on Z-cycles (useless): %d — every checkpoint is usable\n",
		stats.Total, stats.Useless)

	crashed, err := sim.Run(sim.Config{
		Program: rep.Program,
		Nproc:   n,
		Crashes: []sim.Crash{{Proc: 4, AfterEvents: 25}}, // grid center
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash at the grid center: restarts=%d, identical results: %v\n",
		crashed.Restarts, reflect.DeepEqual(clean.FinalVars, crashed.FinalVars))
	for r := 0; r < n; r++ {
		fmt.Printf("  cell %d: u=%d\n", r, clean.FinalVars[r]["u"])
	}
}
