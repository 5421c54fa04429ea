package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/insert"
	"repro/internal/mpl"
	"repro/internal/place"
	"repro/internal/sim"
	"repro/internal/verify"
)

// analyzeChunk is how many programs one timed section transforms.
const analyzeChunk = 64

// analyze transforms a seeded stream of distinct programs with
// core.TransformSource in a closed loop, one program at a time. It is all
// offline analysis (mpl, insert, place) and no runtime or storage, and no
// program repeats, so no cache keyed by program can help.
type analyze struct {
	seed  int64
	next  int      // stream index of the next program
	srcs  []string // the next chunk's sources
	stats map[*phase]*placeStats
}

type placeStats struct{ rounds, moves int }

func newAnalyze(seed int64) *analyze {
	return &analyze{seed: seed, stats: make(map[*phase]*placeStats)}
}

// streamProgram is program i of the stream. The mix is stratified, so every
// run holds the same shares of each kind and size: in every eight programs,
// one corpus program, one corpus.Random program, five small
// verify.Generate programs and one deep verify.GenerateLarge program whose
// scale cycles through 2..8. The seed picks the random programs' contents.
func streamProgram(seed int64, i int) *mpl.Program {
	s := splitmix(seed, i)
	k := i / 8
	var p *mpl.Program
	switch i % 8 {
	case 0:
		iters, width := 2+k/9%5, 2+k%3
		switch k % 9 {
		case 0:
			p = corpus.JacobiFig1(iters)
		case 1:
			p = corpus.JacobiFig2(iters)
		case 2:
			p = corpus.Ring(iters)
		case 3:
			p = corpus.MasterWorker(iters)
		case 4:
			p = corpus.PipelineStages(iters)
		case 5:
			p = corpus.AllReduce(iters)
		case 6:
			p = corpus.ZigzagProne(iters)
		case 7:
			p = corpus.Stencil2D(width, iters)
		default:
			p = corpus.StencilSkewed(width, iters)
		}
	case 1:
		p = corpus.Random(s)
	case 7:
		p = verify.GenerateLarge(s, 2+k%7)
	default:
		p = verify.Generate(s)
	}
	// The name makes every source text distinct.
	p.Name = fmt.Sprintf("s%d", i)
	return p
}

// fill generates the next chunk's sources.
func (a *analyze) fill() {
	a.srcs = a.srcs[:0]
	for k := 0; k < analyzeChunk; k++ {
		a.srcs = append(a.srcs, mpl.Format(streamProgram(a.seed, a.next)))
		a.next++
	}
}

// setup generates the first chunk of the stream.
func (a *analyze) setup() error {
	a.next = 0
	a.fill()
	return nil
}

func (a *analyze) close() error { return nil }

func (a *analyze) chunk(ph *phase) error {
	st := a.stats[ph]
	if st == nil {
		st = &placeStats{}
		a.stats[ph] = st
	}
	base := a.next - len(a.srcs)
	reps := make([]*core.Report, len(a.srcs))
	errs := make([]error, len(a.srcs))
	// Collect the last chunk's garbage, the output checks' included, before
	// the timer starts, so no section pays for collecting it.
	runtime.GC()
	ph.begin()
	for i, src := range a.srcs {
		t0 := time.Now()
		if ph.tr == nil {
			reps[i], errs[i] = core.TransformSource(src, core.DefaultConfig)
		} else {
			reps[i], errs[i] = tracedTransform(ph.tr, base+i, src)
		}
		ph.call(time.Since(t0))
	}
	ph.end(len(a.srcs))

	for i, rep := range reps {
		if err := a.check(ph, base+i, a.srcs[i], rep, errs[i]); err != nil {
			ph.failed++
			logf("analyze: program %d: %v", base+i, err)
			continue
		}
		st.rounds += rep.Phase3.Iterations
		st.moves += len(rep.Phase3.Moves)
	}
	a.fill()
	return nil
}

// check verifies one output: every straight cut of the transformed program
// must be a recovery line (core.Verify finds no violation). In the traced
// phase it also checks that the phases composed by tracedTransform print
// byte-identically to core.Transform, and probes sim.Compile on the output.
func (a *analyze) check(ph *phase, op int, src string, rep *core.Report, err error) error {
	if err != nil {
		return err
	}
	v, err := core.Verify(rep.Program, core.DefaultConfig)
	if err != nil {
		return err
	}
	if len(v) > 0 {
		return fmt.Errorf("%d Condition-1 violation(s) after transform", len(v))
	}
	if ph.tr == nil {
		return nil
	}
	want, err := core.TransformSource(src, core.DefaultConfig)
	if err != nil {
		return err
	}
	if mpl.Format(want.Program) != mpl.Format(rep.Program) {
		return fmt.Errorf("traced phases differ from core.Transform")
	}
	start := ph.tr.now()
	_, err = sim.Compile(rep.Program)
	ph.tr.add("sim.compile", start, ph.tr.now(), -1, op)
	return err
}

// tracedTransform is core.TransformSource with core.DefaultConfig, composed
// from the same phase calls in the same order with the same options, with a
// span around each.
func tracedTransform(tr *tracer, op int, src string) (*core.Report, error) {
	root := tr.open("analyze.op", -1, op)
	defer tr.close(root)
	start := tr.now()
	p, err := mpl.Parse(src)
	tr.add("mpl.parse", start, tr.now(), root, op)
	if err != nil {
		return nil, err
	}
	id := tr.open("core", root, op)
	defer tr.close(id)
	if err := mpl.Check(p); err != nil {
		return nil, err
	}
	work := mpl.Clone(p)
	rep := &core.Report{}
	start = tr.now()
	rep.Phase1, err = insert.InsertCheckpoints(work, insert.DefaultCostModel)
	tr.add("insert", start, tr.now(), id, op)
	if err != nil {
		return nil, err
	}
	start = tr.now()
	rep.Phase3, err = place.Ensure(work, place.Options{
		PreserveLoops: core.DefaultConfig.PreserveLoops,
		Arena:         &cfg.Arena{},
		AssumeOwned:   true,
	})
	tr.add("place", start, tr.now(), id, op)
	if err != nil {
		return nil, err
	}
	rep.Program, rep.Enumeration = rep.Phase3.Program, rep.Phase3.Enumeration
	return rep, nil
}

func (a *analyze) layers(plain, traced *phase) map[string]float64 {
	tr := traced.tr
	st := a.stats[traced]
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	return idle(map[string]float64{
		"mpl.parse_us_p50":    us(tr.durations("mpl.parse"), 0.5),
		"insert.us_p50":       us(tr.durations("insert"), 0.5),
		"place.us_p50":        us(tr.durations("place"), 0.5),
		"place.us_p99":        us(tr.durations("place"), 0.99),
		"place.rounds_per_op": traced.perOp(float64(st.rounds)),
		"place.moves_per_op":  traced.perOp(float64(st.moves)),
		"core.self_us_p50":    us(tr.selfTimes("core"), 0.5),
		"sim.compile_us_p50":  us(tr.durations("sim.compile"), 0.5),
	}, jobLayers, fleetLayers, recoverLayers)
}
