package dbm

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// budgetRun is the outcome of one run under a given region budget.
type budgetRun struct {
	res   *Result
	err   error
	stats Stats
}

func runWithBudget(t *testing.T, exe *obj.Executable, sched *rules.Schedule, threads int, hostParallel bool, maxSteps int64) budgetRun {
	t.Helper()
	cfg := DefaultConfig(threads)
	cfg.HostParallel = hostParallel
	cfg.MaxSteps = maxSteps
	ex, err := New(exe, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	return budgetRun{res: res, err: err, stats: ex.Stats}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestHostParallelBudgetLease pins the leased runaway budget of the
// host-parallel engine against the round-robin engine's exact per-block
// guard. Host-parallel workers draw the region budget in budgetLease
// blocks, so they may trip up to (threads-1)*budgetLease blocks early,
// but a trip only sends the region to round-robin recovery: at every
// budget both engines must surface the same outcome, a short budget
// must fail with the same typed RegionError, and a budget with the full
// lease slack must never trip.
func TestHostParallelBudgetLease(t *testing.T) {
	const threads = 8
	exe := buildScale(t, 20000)
	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}

	// blocks is the first region's block count: the least budget under
	// which the round-robin guard lets a region run and not trip. (Past
	// it, the run may still stop on the instruction budget, which the
	// region's instructions count towards.)
	blocks := int64(sort.Search(1<<20, func(n int) bool {
		r := runWithBudget(t, exe, sched, threads, false, int64(n))
		return r.stats.ParRegions > 0 && !errors.Is(r.err, ErrRegionStuck)
	}))
	if blocks <= threads*budgetLease || blocks >= 1<<20 {
		t.Fatalf("region has %d blocks; want several leases per worker", blocks)
	}

	for _, tc := range []struct {
		name     string
		maxSteps int64
	}{
		{"half", blocks/2 + 1},
		{"one-short", blocks - 1},
		{"exact", blocks},
		{"partial-lease", blocks + 3*budgetLease + 517},
		{"lease-slack", blocks + (threads-1)*budgetLease},
		{"ample", vm.DefaultMaxSteps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := runWithBudget(t, exe, sched, threads, false, tc.maxSteps)
			hp := runWithBudget(t, exe, sched, threads, true, tc.maxSteps)
			if hp.stats.HostParRegions == 0 {
				t.Fatal("host-parallel engine never engaged")
			}
			if errText(rr.err) != errText(hp.err) {
				t.Fatalf("outcomes differ:\n round-robin %v\nhost-parallel %v", rr.err, hp.err)
			}
			if tc.maxSteps < blocks {
				var re *RegionError
				if !errors.As(hp.err, &re) || !errors.Is(hp.err, ErrRegionStuck) {
					t.Fatalf("short budget: got %v, want a RegionError wrapping ErrRegionStuck", hp.err)
				}
				if hp.stats.ParRecoveries != 1 {
					t.Fatalf("short budget: %d recoveries, want the host-parallel trip recovered once", hp.stats.ParRecoveries)
				}
			}
			if tc.maxSteps >= blocks+(threads-1)*budgetLease && hp.stats.ParRecoveries != 0 {
				t.Fatalf("budget with full lease slack tripped: %d recoveries", hp.stats.ParRecoveries)
			}
			if tc.maxSteps == vm.DefaultMaxSteps && hp.err != nil {
				t.Fatalf("ample budget failed: %v", hp.err)
			}
			if hp.err != nil {
				return
			}
			a, b := rr.res, hp.res
			if a.Exit != b.Exit || a.Cycles != b.Cycles || a.Insts != b.Insts ||
				a.MemHash != b.MemHash || a.DataHash != b.DataHash || !slices.Equal(a.Output, b.Output) {
				t.Errorf("results differ:\n round-robin %+v\nhost-parallel %+v", a.Result, b.Result)
			}
			rs, hs := rr.stats, hp.stats
			rs.HostParRegions, hs.HostParRegions = 0, 0
			if rs != hs {
				t.Errorf("stats differ:\n round-robin %+v\nhost-parallel %+v", rs, hs)
			}
		})
	}
}
