// Package compilers models the source-level auto-parallelising
// compilers Janus is compared against in figure 11: a conservative
// "gcc -ftree-parallelize-loops" baseline and a more aggressive
// vectorising "icc -parallel" baseline.
//
// A source compiler sees the program before code generation, so it pays
// no dynamic-translation or dispatch overhead and its parallel code is
// baked in. It is, however, conservative: gcc-like parallelisation only
// transforms loops provably independent at compile time (our type A),
// while icc-like parallelisation additionally emits multi-versioned
// loops guarded by runtime checks (our type C with checks). Neither
// profiles, so both also parallelise unprofitable loops.
//
// Both baselines reuse the same analysis and execution substrate with a
// zero-translation cost model, which is exactly what "the compiler did
// it statically" means in this simulator.
package compilers

import (
	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/vm"
)

// Kind selects the modelled compiler.
type Kind int

const (
	// GCC models gcc -O3 -ftree-parallelize-loops=N -floop-parallelize-all.
	GCC Kind = iota
	// ICC models icc -O3 -parallel.
	ICC
)

func (k Kind) String() string {
	if k == GCC {
		return "gcc"
	}
	return "icc"
}

// staticCost is the cost model for statically-generated parallel code:
// no translation, no dispatch, leaner fork/join than a DBM (the
// compiler emits the threading calls directly).
func staticCost() dbm.CostModel {
	c := dbm.DefaultCost()
	c.TransPerInst = 0
	c.Dispatch = 0
	c.LoopInitBase = 2500
	c.LoopInitPerThread = 600
	c.LoopFinishBase = 1200
	c.LoopFinishPerThread = 250
	return c
}

// Result is a compiler-parallelisation outcome.
type Result struct {
	// Speedup is parallel performance normalised to the same binary's
	// native sequential execution.
	Speedup float64
	// LoopsParallelised counts the transformed loops.
	LoopsParallelised int
}

// Parallelise runs the modelled compiler over exe with the given thread
// count and returns the achieved speedup. hostParallel selects the DBM
// region engine for the simulated run (eligible regions on host
// goroutines, or all round-robin); results are bit-identical either
// way, and callers thread their choice through so a single-goroutine
// A/B run really is one end to end.
func Parallelise(kind Kind, exe *obj.Executable, threads int, hostParallel bool, libs ...*obj.Library) (*Result, error) {
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		return nil, err
	}
	// No profiling: compilers select on static heuristics alone.
	// gcc: static DOALL only. icc: also runtime-checked multi-versioned
	// loops (type C with constructible checks) — but never speculation,
	// so loops with library calls stay sequential.
	opts := analyzer.SelectOptions{UseChecks: kind == ICC}
	prog.SelectLoops(opts)
	if kind == ICC {
		// icc cannot speculate on opaque library code: deselect loops
		// that would need transactions.
		for _, li := range prog.Loops {
			if li.Selected && len(li.LibCalls) > 0 {
				li.Selected = false
			}
		}
	} else {
		// gcc's tree-parallelizer gives up on loops with any call.
		for _, li := range prog.Loops {
			if li.Selected && (len(li.LibCalls) > 0 || len(li.Loop.CallTargets) > 0) {
				li.Selected = false
			}
		}
	}
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		return nil, err
	}

	native, err := vm.RunNative(exe, libs...)
	if err != nil {
		return nil, err
	}
	cfg := dbm.Config{
		Threads:          threads,
		Parallel:         true,
		HostParallel:     hostParallel,
		MinIterPerThread: 4,
		MaxSteps:         vm.DefaultMaxSteps,
		Cost:             staticCost(),
	}
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		return nil, err
	}
	res, err := ex.Run()
	if err != nil {
		return nil, err
	}
	selected := 0
	for _, li := range prog.Loops {
		if li.Selected {
			selected++
		}
	}
	return &Result{
		Speedup:           float64(native.Cycles) / float64(res.Cycles),
		LoopsParallelised: selected,
	}, nil
}
