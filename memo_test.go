package janus

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/singleflight"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// corruptAll flips one payload byte in every artifact under dir.
func corruptAll(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".art" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xFF
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no artifacts found to corrupt")
	}
}

// TestLibsKeyOf pins the overflow contract of the memo key: up to four
// libraries fold into a comparable key, more must report !ok so the
// callers fall back to an uncached run instead of aliasing keys.
func TestLibsKeyOf(t *testing.T) {
	mk := func(n int) []*obj.Library {
		libs := make([]*obj.Library, n)
		for i := range libs {
			libs[i] = &obj.Library{Name: "l"}
		}
		return libs
	}
	for n := 0; n <= 5; n++ {
		k, ok := libsKeyOf(mk(n))
		if wantOK := n <= 4; ok != wantOK {
			t.Fatalf("libsKeyOf(%d libs) ok = %v, want %v", n, ok, wantOK)
		}
		if !ok {
			continue
		}
		// The key must carry exactly the first n pointers, zero-padded.
		for i := 0; i < len(k); i++ {
			if (i < n) != (k[i] != nil) {
				t.Fatalf("libsKeyOf(%d libs) slot %d = %v", n, i, k[i])
			}
		}
	}
	// Distinct library sets of equal length must produce distinct keys.
	a, _ := libsKeyOf(mk(2))
	b, _ := libsKeyOf(mk(2))
	if a == b {
		t.Fatal("two distinct pointer sets folded to the same key")
	}
}

// TestNativeMemoOverflowBypassesCache proves the >4-libraries fallback
// really is uncached: two calls with five libraries execute natively
// twice (distinct result pointers), while the same program with one
// library is memoised (same pointer).
func TestNativeMemoOverflowBypassesCache(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	if len(libs) != 1 {
		t.Fatalf("expected one math library, got %d", len(libs))
	}
	r1, err := runNativeMemo(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runNativeMemo(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("<=4 libs: second run was not served from the memo")
	}

	// Pad to five: four extra unused (never-called) libraries mapped at
	// distinct bases. The VM only needs them resolvable, not called.
	many := append([]*obj.Library{}, libs...)
	base := uint64(0x7f10_0000_0000)
	for i := 0; i < 4; i++ {
		many = append(many, &obj.Library{Name: "pad", Base: base, Code: make([]byte, 24)})
		base += 0x1_0000_0000
	}
	o1, err := runNativeMemo(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := runNativeMemo(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal(">4 libs: runs shared a result pointer, expected the uncached path")
	}
	if o1.Cycles != r1.Cycles || o1.DataHash != r1.DataHash {
		t.Fatalf("unused pad libraries changed the result: %+v vs %+v", o1, r1)
	}
}

// TestMemoEvictionKeepsInFlight fills the native flight to memoLimit
// while one computation is blocked in flight, forces eviction past the
// limit, and verifies the in-flight entry still deduplicates joiners
// (the run-exactly-once guarantee survives eviction pressure).
func TestMemoEvictionKeepsInFlight(t *testing.T) {
	// A private flight with the production limit: the package-level
	// tables are shared with other tests, so pressure is applied to an
	// identically-configured instance.
	f := singleflight.Flight[runKey, *vm.Result]{Limit: memoLimit}
	dummy := func(i int) runKey { return runKey{exe: &obj.Executable{Entry: uint64(i)}} }

	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	inflight := dummy(-1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(inflight, func() (*vm.Result, error) {
			runs.Add(1)
			close(started)
			<-release
			return &vm.Result{Exit: 7}, nil
		})
	}()
	<-started

	// Flood past the limit: every completed entry becomes evictable,
	// and eviction triggers each time the table is full.
	for i := 0; i < 3*memoLimit; i++ {
		if _, err := f.Do(dummy(i), func() (*vm.Result, error) { return &vm.Result{}, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// The blocked computation must still be joinable, not restarted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := f.Do(inflight, func() (*vm.Result, error) {
			runs.Add(1)
			return &vm.Result{Exit: -1}, nil
		})
		if err != nil || res.Exit != 7 {
			t.Errorf("joiner got %+v, %v; want the in-flight result", res, err)
		}
	}()
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("in-flight computation ran %d times under eviction pressure, want 1", got)
	}
}

// TestNativeMemoHealsCorruptDiskEntry corrupts the cached native
// baseline on disk and checks the next (memory-reset) lookup detects
// it, recomputes the identical result, and rewrites the entry.
func TestNativeMemoHealsCorruptDiskEntry(t *testing.T) {
	cache, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos() // other tests may have memoised this executable in memory
	r1, err := runNativeMemo(cache, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Misses != 1 {
		t.Fatalf("cold run: %s, want exactly one miss", got)
	}

	corruptAll(t, cache.Dir())
	ResetMemos() // fall through the memory tier

	r2, err := runNativeMemo(cache, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.BadEntries == 0 {
		t.Fatalf("corruption was not detected: %s", st)
	}
	if r2.Cycles != r1.Cycles || r2.DataHash != r1.DataHash || r2.MemHash != r1.MemHash {
		t.Fatalf("recomputed result differs: %+v vs %+v", r2, r1)
	}

	// The rewrite healed the store: a third lookup hits.
	ResetMemos()
	before := cache.Stats().Hits
	if _, err := runNativeMemo(cache, exe, libs...); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits <= before {
		t.Fatal("store did not heal: third lookup was not a hit")
	}
}

// figure7Configs are the three Janus bars of figure 7.
var figure7Configs = []Config{
	{},
	{UseProfile: true},
	{UseProfile: true, UseChecks: true},
}

// TestParalleliseMatchesFreshAnalysis checks that running on a clone
// of the memoised analysis yields the schedule a fresh, unshared
// analysis would: for every figure-7 binary and configuration, the
// schedule bytes equal those of Analyze → profile → SelectLoops →
// GenParallelSchedule done from scratch.
func TestParalleliseMatchesFreshAnalysis(t *testing.T) {
	for _, name := range workloads.ParallelisableNames() {
		t.Run(name, func(t *testing.T) {
			exe, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
			if err != nil {
				t.Fatal(err)
			}
			train, _, err := workloads.Build(name, workloads.Train, workloads.O3)
			if err != nil {
				t.Fatal(err)
			}
			trainProg, err := analyzer.Analyze(train)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := RunProfiling(train, trainProg, libs...)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range figure7Configs {
				fresh, err := analyzer.Analyze(exe)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.UseProfile {
					fresh.ApplyCoverage(pr.Coverage)
					fresh.ApplyExclCoverage(pr.ExclCoverage)
					fresh.ApplyAvgIters(pr.AvgIters)
					fresh.ApplyDependences(pr.Dependences)
				}
				fresh.SelectLoops(analyzer.SelectOptions{
					UseProfile:  cfg.UseProfile,
					MinCoverage: analyzer.DefaultMinCoverage,
					UseChecks:   cfg.UseChecks,
				})
				want := saveSchedule(t, fresh)

				cfg.Threads = 8
				cfg.TrainExe = train
				rep, err := Parallelise(exe, cfg, libs...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rep.Schedule.Save()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("profile=%v checks=%v: schedule from the memoised analysis differs from a fresh one (%d vs %d bytes)",
						cfg.UseProfile, cfg.UseChecks, len(got), len(want))
				}
			}
		})
	}
}

func saveSchedule(t *testing.T, p *analyzer.Program) []byte {
	t.Helper()
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	img, err := sched.Save()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestParalleliseProfilesOnceWithoutTrainExe: with TrainExe nil the
// ref binary profiles itself, and a second run must reuse the first
// profile from memory. The native and DBM results come from memory
// too, so the second run makes no durable-tier lookup at all; a
// profile memo miss would add a profile lookup.
func TestParalleliseProfilesOnceWithoutTrainExe(t *testing.T) {
	cache, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Threads: 8, UseProfile: true, UseChecks: true, Verify: true, Cache: cache}
	first, err := Parallelise(exe, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	second, err := Parallelise(exe, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 0 || misses != 0 {
		t.Fatalf("second run made %d hits and %d misses, want no durable lookups", hits, misses)
	}
	if first.Program == second.Program {
		t.Fatal("two runs shared one per-run Program")
	}
	if first.Speedup() != second.Speedup() || first.Selected != second.Selected {
		t.Fatalf("runs disagree: %.4f/%d vs %.4f/%d", first.Speedup(), first.Selected, second.Speedup(), second.Selected)
	}
}

// TestParalleliseConcurrentOnOneExe runs every figure-7 configuration
// concurrently on one binary, twice over, from a cold memo: the runs
// share one analysis and one profile, so under -race this checks the
// shared Program is only read. Each schedule must match a sequential
// run's.
func TestParalleliseConcurrentOnOneExe(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(figure7Configs))
	for i, cfg := range figure7Configs {
		cfg.Threads = 8
		rep, err := Parallelise(exe, cfg, libs...)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = rep.Schedule.Save(); err != nil {
			t.Fatal(err)
		}
	}
	ResetMemos()
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, cfg := range figure7Configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg.Threads = 8
				cfg.Verify = true
				rep, err := Parallelise(exe, cfg, libs...)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := rep.Schedule.Save()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("config %d: concurrent schedule differs from the sequential one", i)
				}
			}()
		}
	}
	wg.Wait()
}

// lookups is the number of durable-tier reads a cache has served.
func lookups(c *artcache.Cache) int64 {
	st := c.Stats()
	return st.Hits + st.Misses
}

// dbmTierFixture returns an empty cache, a small binary and a
// static+checks parallel schedule for it, with the memory tiers reset
// so earlier tests' entries cannot answer.
func dbmTierFixture(t *testing.T) (*artcache.Cache, *obj.Executable, []*obj.Library, *rules.Schedule) {
	t.Helper()
	cache, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analysis(exe)
	if err != nil {
		t.Fatal(err)
	}
	prog := base.Clone()
	prog.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	return cache, exe, libs, sched
}

// TestDBMMemoKeysDoNotAlias: DBM configurations that differ in the
// engine knob, the thread count or the schedule (nil vs non-nil) must
// each get their own entry in the memory tier — a fresh durable lookup
// and a distinct result — while repeating any of them is served from
// memory with no lookup.
func TestDBMMemoKeysDoNotAlias(t *testing.T) {
	cache, exe, libs, sched := dbmTierFixture(t)
	base := dbm.DefaultConfig(8)
	serial := base
	serial.HostParallel = false
	four := base
	four.Threads = 4
	cases := []struct {
		name  string
		sched *rules.Schedule
		cfg   dbm.Config
	}{
		{"base", sched, base},
		{"host-parallel off", sched, serial},
		{"4 threads", sched, four},
		{"no schedule", nil, base},
	}
	got := make([]*dbm.Result, len(cases))
	seen := map[*dbm.Result]string{}
	for i, c := range cases {
		before := lookups(cache)
		res, err := runDBMCached(cache, exe, c.sched, c.cfg, libs...)
		if err != nil {
			t.Fatal(err)
		}
		if n := lookups(cache) - before; n != 1 {
			t.Errorf("%s: first call made %d durable lookups, want 1", c.name, n)
		}
		if other, ok := seen[res]; ok {
			t.Errorf("%s: result aliases the %s entry", c.name, other)
		}
		seen[res] = c.name
		got[i] = res
	}
	if got[0].Cycles == got[2].Cycles || got[0].Cycles == got[3].Cycles {
		t.Errorf("thread count or schedule did not change the cycle count: %d/%d/%d", got[0].Cycles, got[2].Cycles, got[3].Cycles)
	}
	for i, c := range cases {
		before := lookups(cache)
		res, err := runDBMCached(cache, exe, c.sched, c.cfg, libs...)
		if err != nil {
			t.Fatal(err)
		}
		if n := lookups(cache) - before; n != 0 {
			t.Errorf("%s: repeat made %d durable lookups, want a memory hit", c.name, n)
		}
		if res != got[i] {
			t.Errorf("%s: repeat returned the %q entry", c.name, seen[res])
		}
	}
}

// TestDBMMemoInjectExecutes: a fault-injected run bypasses both tiers
// even when the same configuration without injection is memoised. Each
// injected run executes and reports its own recoveries, and the clean
// entry stays clean.
func TestDBMMemoInjectExecutes(t *testing.T) {
	cache, exe, libs, sched := dbmTierFixture(t)
	cfg := dbm.DefaultConfig(8)
	clean, err := runDBMCached(cache, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.ParsePlan("scan-defeat")
	if err != nil {
		t.Fatal(err)
	}
	injected := cfg
	injected.Inject = plan
	before := lookups(cache)
	var prev *dbm.Result
	for i := 0; i < 2; i++ {
		res, err := runDBMCached(cache, exe, sched, injected, libs...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ParRecoveries == 0 {
			t.Fatalf("injected run %d reported no recoveries: it did not execute", i)
		}
		if res == clean || res == prev {
			t.Fatalf("injected run %d returned a memoised result", i)
		}
		if res.Cycles != clean.Cycles || res.DataHash != clean.DataHash {
			t.Fatalf("injected run %d diverged: %d cycles vs %d", i, res.Cycles, clean.Cycles)
		}
		prev = res
	}
	if n := lookups(cache) - before; n != 0 {
		t.Errorf("injected runs made %d durable lookups, want 0", n)
	}
	again, err := runDBMCached(cache, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if again != clean || again.Stats.ParRecoveries != 0 {
		t.Errorf("clean lookup after injection: %p with %d recoveries, want the memoised clean result", again, again.Stats.ParRecoveries)
	}
}

// TestDBMMemoResetFallsToDisk: ResetMemos empties the DBM tier, so the
// next lookup is a durable hit; the one after it is served from memory.
func TestDBMMemoResetFallsToDisk(t *testing.T) {
	cache, exe, libs, sched := dbmTierFixture(t)
	cfg := dbm.DefaultConfig(8)
	first, err := runDBMCached(cache, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	before := cache.Stats()
	second, err := runDBMCached(cache, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Fatalf("lookup after ResetMemos made %d hits and %d misses, want 1 hit", hits, misses)
	}
	if second == first || second.Cycles != first.Cycles || second.Stats != first.Stats {
		t.Fatalf("disk replay: %p %+v, want a decoded copy of %p %+v", second, second.Stats, first, first.Stats)
	}
	third, err := runDBMCached(cache, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if third != second || lookups(cache) != after.Hits+after.Misses {
		t.Fatal("third lookup was not served from memory")
	}
}

// TestDBMMemoNilCacheExecutes: without a durable cache there is no DBM
// memory tier, so two identical calls run the DBM twice.
func TestDBMMemoNilCacheExecutes(t *testing.T) {
	_, exe, libs, sched := dbmTierFixture(t)
	cfg := dbm.DefaultConfig(8)
	a, err := runDBMCached(nil, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runDBMCached(nil, exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("nil cache: second call returned the first call's result")
	}
	if a.Cycles != b.Cycles || a.DataHash != b.DataHash {
		t.Fatalf("two executions disagree: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

// TestDBMMemoConcurrentLookupsMissOnce: concurrent identical lookups on
// an empty cache share one computation — exactly one durable miss, one
// write, and one result for every caller.
func TestDBMMemoConcurrentLookupsMissOnce(t *testing.T) {
	cache, exe, libs, sched := dbmTierFixture(t)
	cfg := dbm.DefaultConfig(8)
	const n = 8
	results := make([]*dbm.Result, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runDBMCached(cache, exe, sched, cfg, libs...)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("%d concurrent lookups: %s, want exactly 1 miss", n, st)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different result than caller 0", i)
		}
	}
}
