package dbm_test

// Recovery tests for the host-parallel region engine: under every
// deterministic fault-injection point, a run whose speculative regions
// fail must roll back, re-execute round-robin and finish bit-identical
// to a run that never left the round-robin engine — same simulated
// result AND same stats (minus the engine/recovery counters that
// legitimately record which path ran). Run with -race these double as
// race tests for the checkpoint save hook, the charge journal and the
// cache-clearing recovery path under real concurrency.

import (
	"runtime"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/workloads"
)

// runInjected executes one workload with the host-parallel engine
// armed with the given injection plan.
func runInjected(t *testing.T, name string, plan *faultinject.Plan) *dbm.Result {
	t.Helper()
	exe, libs, err := workloads.Build(name, workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	prog.SelectLoops(analyzer.SelectOptions{})
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbm.DefaultConfig(8)
	cfg.HostParallel = true
	cfg.Inject = plan
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sansRecoveryStats additionally clears the recovery counters: an
// injected run records recoveries and demotions by design, everything
// else must match the pure round-robin run exactly.
func sansRecoveryStats(s dbm.Stats) dbm.Stats {
	s = sansEngineStats(s)
	s.ParRecoveries = 0
	s.DemotedLoops = 0
	return s
}

// injectionSpecs covers every injection point. worker-panic doubles as
// the panic-containment test: the forced panic must surface as a
// recovered region failure, never crash the process or the test.
var injectionSpecs = []string{"scan-defeat", "worker-panic", "stall", "budget"}

func TestRecoveryBitIdenticalPerPoint(t *testing.T) {
	rr := runEngine(t, "470.lbm", false)
	for _, spec := range injectionSpecs {
		// The "static" element names the engine under injection: the
		// static-chunk host-parallel engine.
		t.Run(spec+"/static", func(t *testing.T) {
			plan, err := faultinject.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			inj := runInjected(t, "470.lbm", plan)
			if inj.Stats.ParRecoveries == 0 {
				t.Fatalf("injection %q never triggered a recovery (stats %+v)", spec, inj.Stats)
			}
			if inj.Stats.DemotedLoops == 0 {
				t.Errorf("recovery ran %d times but demoted no loop", inj.Stats.ParRecoveries)
			}
			if inj.Stats.DemotedLoops > inj.Stats.ParRecoveries {
				t.Errorf("more demotions (%d) than recoveries (%d)", inj.Stats.DemotedLoops, inj.Stats.ParRecoveries)
			}
			if !sameResult(rr, inj) {
				t.Errorf("recovered run diverges from round-robin:\n round-robin %+v\n   recovered %+v", rr.Result, inj.Result)
			}
			if sansRecoveryStats(rr.Stats) != sansRecoveryStats(inj.Stats) {
				t.Errorf("stats diverge after recovery:\n round-robin %+v\n   recovered %+v", rr.Stats, inj.Stats)
			}
		})
	}
}

// TestRecoverySparseInjection arms the injector on every third
// speculative region: recovered regions and untouched speculative
// regions must interleave without contaminating each other, and the
// demotion latch must keep each failed loop off the speculative path
// for the rest of the run.
func TestRecoverySparseInjection(t *testing.T) {
	rr := runEngine(t, "433.milc", false)
	plan, err := faultinject.ParsePlan("scan-defeat@3#42")
	if err != nil {
		t.Fatal(err)
	}
	inj := runInjected(t, "433.milc", plan)
	if inj.Stats.ParRecoveries == 0 {
		t.Fatal("sparse injection never triggered a recovery")
	}
	if !sameResult(rr, inj) {
		t.Errorf("recovered run diverges from round-robin:\n round-robin %+v\n   recovered %+v", rr.Result, inj.Result)
	}
	if sansRecoveryStats(rr.Stats) != sansRecoveryStats(inj.Stats) {
		t.Errorf("stats diverge after recovery:\n round-robin %+v\n   recovered %+v", rr.Stats, inj.Stats)
	}
}

// TestRecoveryDeterministicAcrossGOMAXPROCS pins the whole recovery
// path — which regions fail, how many recoveries run, which loops
// demote — as a deterministic function of the injection plan alone.
func TestRecoveryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	plan, err := faultinject.ParsePlan("worker-panic")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runInjected(t, "470.lbm", plan)
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := runInjected(t, "470.lbm", plan)

	if !sameResult(one, many) {
		t.Errorf("recovered results differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Result, many.Result)
	}
	if one.Stats != many.Stats {
		t.Errorf("recovery stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Stats, many.Stats)
	}
}
