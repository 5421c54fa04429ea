// MPMD demonstrates the paper's Multiple Program Multiple Data extension
// (§3): a master program and a worker program written separately are
// merged into one SPMD program whose top level is an ID-dependent guard
// chain, then flow through the same three phases. The merged program's
// checkpoint placements straddle the task/result messages; the
// transformation repairs them, and a crashed worker recovers from a
// straight cut.
package main

import (
	"fmt"
	"log"
	"reflect"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/mpl"
	"repro/internal/mpmd"
	"repro/internal/sim"
)

const masterSrc = `
program master
var task, result, acc, w
proc {
    task = 7
    chkpt
    w = 1
    while w < nproc {
        send(w, task)
        w = w + 1
    }
    w = 1
    while w < nproc {
        recv(w, result)
        acc = acc + result
        w = w + 1
    }
}
`

const workerSrc = `
program worker
var task, result
proc {
    recv(0, task)
    result = task * rank
    send(0, result)
    chkpt
}
`

func main() {
	master, err := mpl.Parse(masterSrc)
	if err != nil {
		log.Fatal(err)
	}
	worker, err := mpl.Parse(workerSrc)
	if err != nil {
		log.Fatal(err)
	}

	merged, err := mpmd.Merge("masterworker", []mpmd.Role{
		{Name: "master", Guard: mpl.Eq(mpl.Rank(), mpl.Int(0)), Program: master},
		{Name: "worker", Guard: mpl.Neq(mpl.Rank(), mpl.Int(0)), Program: worker},
	}, attr.DefaultSolver)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged SPMD program:")
	fmt.Println(mpl.Format(merged))

	rep, err := core.Transform(merged, core.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transformation: %d violation(s), %d move(s), %d equalized\n\n",
		len(rep.Phase3.InitialViolations), len(rep.Phase3.Moves), len(rep.Phase3.EqualizedStmts))

	const n = 5
	clean, err := sim.Run(sim.Config{Program: rep.Program, Nproc: n})
	if err != nil {
		log.Fatal(err)
	}
	crashed, err := sim.Run(sim.Config{
		Program: rep.Program,
		Nproc:   n,
		Crashes: []sim.Crash{{Proc: 3, AfterEvents: 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master acc = %d (want 7·(1+2+3+4) = 70)\n", clean.FinalVars[0]["acc"])
	fmt.Printf("crashed-worker run: restarts=%d, acc = %d\n", crashed.Restarts, crashed.FinalVars[0]["acc"])
	if reflect.DeepEqual(clean.FinalVars, crashed.FinalVars) {
		fmt.Println("results identical ✓")
	} else {
		fmt.Println("RESULTS DIVERGED ✗")
	}
}
