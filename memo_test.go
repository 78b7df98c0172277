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
	"janus/internal/obj"
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
// profile from memory. Its only durable-tier lookup is then the DBM
// result (DBM runs are not memoised in memory); a profile memo miss
// would add a profile lookup.
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
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 0 {
		t.Fatalf("second run made %d hits and %d misses, want 1 hit (the DBM result) and 0 misses", hits, misses)
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
