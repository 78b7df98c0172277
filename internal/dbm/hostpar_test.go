package dbm_test

// Determinism tests for the host-parallel region engine: simulated
// results must be bit-identical to the single-goroutine round-robin
// engine, at any GOMAXPROCS. Run with -race these also double as race
// tests for the per-thread TLBs, code caches and block-link inline
// caches under real concurrency.

import (
	"runtime"
	"slices"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/workloads"
)

// runEngine executes one workload under a statically-parallelised DBM
// with the given engine selection.
func runEngine(t *testing.T, name string, hostParallel bool) *dbm.Result {
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
	cfg.HostParallel = hostParallel
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

// sansEngineStats clears the only stat that legitimately differs
// between the engines: which of them ran the regions.
func sansEngineStats(s dbm.Stats) dbm.Stats {
	s.HostParRegions = 0
	return s
}

// sameResult compares every simulated-outcome field (the Output slice
// keeps vm.Result from being comparable with ==).
func sameResult(a, b *dbm.Result) bool {
	return a.Exit == b.Exit && a.Cycles == b.Cycles && a.Insts == b.Insts &&
		a.MemHash == b.MemHash && a.DataHash == b.DataHash &&
		slices.Equal(a.Output, b.Output)
}

func TestHostParallelBitIdenticalToRoundRobin(t *testing.T) {
	for _, name := range []string{"470.lbm", "462.libquantum", "433.milc"} {
		t.Run(name, func(t *testing.T) {
			rr := runEngine(t, name, false)
			hp := runEngine(t, name, true)
			if rr.Stats.HostParRegions != 0 {
				t.Fatalf("round-robin run used host-parallel engine %d times", rr.Stats.HostParRegions)
			}
			if hp.Stats.HostParRegions == 0 {
				t.Fatalf("host-parallel engine never engaged (all %d regions fell back)", hp.Stats.ParRegions)
			}
			if !sameResult(rr, hp) {
				t.Errorf("results differ:\n round-robin %+v\nhost-parallel %+v", rr.Result, hp.Result)
			}
			if sansEngineStats(rr.Stats) != sansEngineStats(hp.Stats) {
				t.Errorf("stats differ:\n round-robin %+v\nhost-parallel %+v", rr.Stats, hp.Stats)
			}
		})
	}
}

func TestHostParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runEngine(t, "470.lbm", true)
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := runEngine(t, "470.lbm", true)

	if !sameResult(one, many) {
		t.Errorf("results differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Result, many.Result)
	}
	if one.Stats != many.Stats {
		t.Errorf("stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Stats, many.Stats)
	}
}
