// Package janus is a Go reproduction of "Janus: Statically-Driven and
// Profile-Guided Automatic Dynamic Binary Parallelisation" (Zhou &
// Jones, CGO 2019): a static binary analyser that encodes loop
// parallelisation as rewrite schedules, and a dynamic binary modifier
// that applies them just-in-time, with runtime bounds checks and
// software-transactional speculation guarding the cases static analysis
// cannot prove.
//
// The package exposes the whole figure-1(a) flow:
//
//	exe := workloads.MustBuild(...)            // or any guest binary
//	rep, err := janus.Parallelise(exe, janus.Config{Threads: 8}, libs...)
//	fmt.Println(rep.Speedup())
//
// Parallelise runs the optional training stage (coverage profiling,
// then dependence profiling), selects loops, generates the
// parallelisation rewrite schedule, executes the binary under the DBM,
// and validates the result against native execution.
package janus

import (
	"fmt"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Config selects a parallelisation configuration (the four bars of the
// paper's figure 7 correspond to: nothing enabled with Parallel=false;
// static only; static+profile; static+profile+checks).
type Config struct {
	// Threads is the number of parallel threads (default 8).
	Threads int
	// UseProfile enables the training stage: coverage profiling filters
	// unprofitable loops, dependence profiling classifies ambiguous
	// ones.
	UseProfile bool
	// UseChecks admits dynamic-DOALL loops guarded by runtime checks
	// and speculation.
	UseChecks bool
	// MinCoverage is the coverage threshold for UseProfile (default 1%).
	MinCoverage float64
	// Cost overrides the DBM cost model (zero value = default).
	Cost *dbm.CostModel
	// TrainExe, when non-nil, is a build of the same program with
	// training inputs used for the profiling stage (the paper profiles
	// with train inputs and evaluates with ref inputs).
	TrainExe *obj.Executable
	// SingleGoroutine forces the deterministic round-robin engine for
	// every parallel region instead of running eligible regions on host
	// goroutines. The two engines produce bit-identical simulated
	// results (virtual cycles, figures, memory hashes); this knob only
	// trades host wall-clock, for debugging and engine A/B runs.
	SingleGoroutine bool
	// Verify compares the DBM run's outputs and memory against native
	// execution and fails on mismatch (default true via Parallelise).
	Verify bool
	// Inject arms deterministic fault injection inside the DBM's
	// host-parallel region engine (see internal/faultinject). Injected
	// faults are recovered by re-executing the region round-robin, so
	// results — and Verify — are unaffected; Stats.ParRecoveries
	// records that the recovery path ran. Nil disables injection at
	// zero cost.
	Inject *faultinject.Plan
	// OnStats, when non-nil, receives the final DBM stats of the
	// parallelised run (before verification). It lets callers observe
	// recovery counters (ParRecoveries, DemotedLoops) without plumbing
	// them through every figure's return value.
	OnStats func(dbm.Stats)
	// Cache, when non-nil, is the durable artifact tier: native
	// baselines, training profiles and DBM results are looked up on
	// disk by content fingerprint before being recomputed, and
	// published after. Results are byte-identical with or without it
	// (fault-injected runs bypass it, see cache.go). Nil disables the
	// tier; the in-memory memos still apply.
	Cache *artcache.Cache
}

// Report is the outcome of a full Janus run.
type Report struct {
	// Program is this run's analysis: a Program.Clone whose loop
	// records are private but whose CFG, SSA and per-loop analyses are
	// shared with every other run over the same binary, read-only.
	Program  *analyzer.Program
	Schedule *rules.Schedule
	Native   *vm.Result
	DBM      *dbm.Result
	Stats    dbm.Stats
	// Selected is the number of loops parallelised.
	Selected int
}

// Speedup returns native-cycles / DBM-cycles (the paper's headline
// metric, normalised to native single-threaded execution).
func (r *Report) Speedup() float64 {
	if r.DBM == nil || r.DBM.Cycles == 0 {
		return 0
	}
	return float64(r.Native.Cycles) / float64(r.DBM.Cycles)
}

// Parallelise runs the complete Janus flow on exe.
func Parallelise(exe *obj.Executable, cfg Config, libs ...*obj.Library) (*Report, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.MinCoverage == 0 {
		cfg.MinCoverage = analyzer.DefaultMinCoverage
	}

	// The analysis of a binary is shared by every run over it; this
	// run's profile application and selection mutate a private clone.
	base, err := runAnalyzeMemo(exe)
	if err != nil {
		return nil, fmt.Errorf("janus: static analysis: %w", err)
	}
	prog := base.Clone()

	// Training stage (optional, figure 1(a) left).
	if cfg.UseProfile || cfg.UseChecks {
		trainExe := cfg.TrainExe
		// The profile memo keys on the analysis, so profiling the ref
		// binary itself must pass the shared base, not this run's clone.
		trainProg := base
		if trainExe == nil {
			trainExe = exe
		} else {
			trainProg, err = runAnalyzeMemo(trainExe)
			if err != nil {
				return nil, fmt.Errorf("janus: train analysis: %w", err)
			}
		}
		pr, err := runProfilingMemo(cfg.Cache, trainExe, trainProg, libs...)
		if err != nil {
			return nil, fmt.Errorf("janus: profiling: %w", err)
		}
		// Loop IDs are assigned deterministically from the same binary
		// layout, so train results map directly onto ref analysis.
		prog.ApplyCoverage(pr.Coverage)
		prog.ApplyExclCoverage(pr.ExclCoverage)
		prog.ApplyAvgIters(pr.AvgIters)
		prog.ApplyDependences(pr.Dependences)
	}

	prog.SelectLoops(analyzer.SelectOptions{
		UseProfile:  cfg.UseProfile,
		MinCoverage: cfg.MinCoverage,
		UseChecks:   cfg.UseChecks,
	})
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		return nil, fmt.Errorf("janus: schedule generation: %w", err)
	}

	native, err := runNativeMemo(cfg.Cache, exe, libs...)
	if err != nil {
		return nil, fmt.Errorf("janus: native run: %w", err)
	}

	dcfg := dbm.DefaultConfig(cfg.Threads)
	dcfg.HostParallel = !cfg.SingleGoroutine
	dcfg.Inject = cfg.Inject
	if cfg.Cost != nil {
		dcfg.Cost = *cfg.Cost
	}
	res, err := runDBMCached(cfg.Cache, exe, sched, dcfg, libs...)
	if err != nil {
		return nil, fmt.Errorf("janus: DBM run: %w", err)
	}
	if cfg.OnStats != nil {
		cfg.OnStats(res.Stats)
	}

	if cfg.Verify {
		if err := verify(native, res); err != nil {
			return nil, err
		}
	}

	selected := 0
	for _, li := range prog.Loops {
		if li.Selected {
			selected++
		}
	}
	return &Report{
		Program:  prog,
		Schedule: sched,
		Native:   native,
		DBM:      res,
		Stats:    res.Stats,
		Selected: selected,
	}, nil
}

// verify compares the DBM result against native execution. It reads
// res.DataHash rather than asking a live Executor: the two are the
// same hash (Run records ex.DataHash() into the Result), and a
// cache-replayed result has no Executor behind it.
func verify(native *vm.Result, res *dbm.Result) error {
	if len(native.Output) != len(res.Output) {
		return fmt.Errorf("janus: verification failed: %d outputs vs %d native", len(res.Output), len(native.Output))
	}
	for i := range native.Output {
		if native.Output[i] != res.Output[i] {
			return fmt.Errorf("janus: verification failed: output %d is %#x, native %#x", i, res.Output[i], native.Output[i])
		}
	}
	if res.DataHash != native.DataHash {
		return fmt.Errorf("janus: verification failed: final memory image differs from native")
	}
	return nil
}

// ProfileResult carries the outcomes of the training stage.
type ProfileResult struct {
	// Coverage is the per-loop fraction of dynamic instructions
	// (inclusive: nested loops attribute to every enclosing level).
	Coverage map[int]float64
	// ExclCoverage attributes each instruction to its innermost loop.
	ExclCoverage map[int]float64
	// AvgIters is mean iterations per invocation.
	AvgIters map[int]float64
	// Dependences records, for each ambiguous loop that executed,
	// whether a cross-iteration dependence was observed.
	Dependences map[int]bool
	// Executor exposes the raw profiles (Excall statistics etc.).
	Executor *dbm.Executor
}

// RunProfiling executes the statically-driven profiling stage (figure
// 1(a)'s training stage) over exe.
func RunProfiling(exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	sched := prog.GenProfileSchedule()
	cfg := dbm.Config{Threads: 1, Profile: true, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		return nil, err
	}
	if _, err := ex.Run(); err != nil {
		return nil, err
	}
	deps := ex.Dep.Observed()
	// Every ambiguous loop that executed without an observed dependence
	// is confirmed independent.
	confirmed := map[int]bool{}
	for _, li := range prog.Loops {
		if li.Class == analyzer.ClassDynDOALL || li.Class == analyzer.ClassDynDep {
			if ex.Cov.Invocations(li.ID) > 0 {
				confirmed[li.ID] = deps[li.ID]
			}
		}
	}
	return &ProfileResult{
		Coverage:     ex.Cov.Fractions(),
		ExclCoverage: ex.Cov.ExclusiveFractions(),
		AvgIters:     ex.Cov.AvgIters(),
		Dependences:  confirmed,
		Executor:     ex,
	}, nil
}

// RunNativeBaseline executes exe without any modification. The result
// is memoised per executable: native execution is deterministic, so
// repeated baseline runs of the same binary return the cached result.
func RunNativeBaseline(exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	return runNativeMemo(nil, exe, libs...)
}

// RunBareDBM executes exe under the DBM with no rewrite schedule (the
// "DynamoRIO only" baseline of figure 7).
func RunBareDBM(exe *obj.Executable, libs ...*obj.Library) (*dbm.Result, error) {
	return RunBareDBMCached(nil, exe, libs...)
}
