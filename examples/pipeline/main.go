// Pipeline models the long-running staged computation the paper's
// introduction motivates (grid / massively parallel applications): the
// lower half of the machine produces data each step, the upper half
// consumes it. The untransformed checkpoint placement straddles the
// producer-consumer messages; the transformation repairs it, and the run
// then survives a cascade of injected crashes with bit-identical results
// and zero coordination messages.
package main

import (
	"fmt"
	"log"
	"reflect"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sim"
)

func main() {
	const n = 6
	prog := corpus.PipelineStages(5)

	rep, err := core.Transform(prog, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformation: %d violation(s) repaired with %d move(s)\n",
		len(rep.Phase3.InitialViolations), len(rep.Phase3.Moves))

	clean, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("failure-free run:  %s\n", clean.Metrics)

	crashed, err := sim.Run(sim.Config{
		Program: rep.Program,
		Nproc:   n,
		Crashes: []sim.Crash{
			{Inc: 0, Proc: 1, AfterEvents: 15},
			{Inc: 1, Proc: 4, AfterEvents: 10},
			{Inc: 2, Proc: 0, AfterEvents: 5},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with 3 crashes:    %s (restarts=%d)\n", crashed.Metrics, crashed.Restarts)

	if reflect.DeepEqual(clean.FinalVars, crashed.FinalVars) {
		fmt.Println("results identical across failure schedules ✓")
	} else {
		fmt.Println("RESULTS DIVERGED ✗")
	}
	if crashed.Metrics.CtrlMessages == 0 {
		fmt.Println("zero coordination messages, as promised ✓")
	}
	for p, vars := range clean.FinalVars {
		fmt.Printf("  rank %d: data=%d\n", p, vars["data"])
	}
}
