package janus

import (
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/obj"
	"janus/internal/singleflight"
	"janus/internal/vm"
)

// Native execution and the profiling stage are deterministic functions
// of the binary: the evaluation harness re-runs the same baseline many
// times (figure 9 alone replays one binary at eight thread counts, each
// replay needing the identical native result and train profile), and
// with the experiment scheduler several benchmark rows run these
// baselines concurrently. Each memo therefore has singleflight
// semantics (internal/singleflight): the first caller runs, concurrent
// callers for the same key block on that one run and share its result
// instead of duplicating the work. Entries key on the *obj.Executable
// pointer (plus the library set) — the workload build cache returns a
// stable executable per (name, input, opt), so a pointer can never
// alias two different programs — and each table is bounded so
// long-lived processes cannot grow it without limit.
//
// There are three such memos here — native results, analyses and
// training profiles — and they apply with or without a durable cache.
// A fourth in-memory tier, for DBM results, lives with runDBMCached in
// cache.go; it runs only when a durable cache is configured (c != nil),
// so without one every DBM call still executes.
//
// Beneath the in-memory tiers sits the optional durable tier
// (internal/artcache, wired through Config.Cache): on a memory miss
// the flight function first consults the on-disk store, keyed by
// content fingerprint rather than pointer, and publishes what it
// computes. The analysis memo is the exception — an analyzer.Program
// is a live CFG/SSA object graph with no serialised form, so it stays
// memory → compute only. It is not cheap to lose: on a warm request
// every native, profile and DBM result is a memory hit, and
// re-analysing the binary for each configuration would be most of the
// remaining work.

// memoLimit bounds each memo table. It must hold the full suite's
// working set — 70 analyses, fewer native and profile results — because
// a full table evicts every completed entry at once, and an evicted
// analysis also strands the profile entries keyed on it. Eviction keeps
// in-flight entries, so the run-exactly-once guarantee survives it.
const memoLimit = 128

// libsKey folds a library pointer set into a comparable key.
type libsKey [4]*obj.Library

func libsKeyOf(libs []*obj.Library) (libsKey, bool) {
	var k libsKey
	if len(libs) > len(k) {
		return k, false
	}
	copy(k[:], libs)
	return k, true
}

type runKey struct {
	exe  *obj.Executable
	libs libsKey
}

var nativeFlight = singleflight.Flight[runKey, *vm.Result]{Limit: memoLimit}

// runNativeMemo returns the (deterministic) native execution result for
// exe, running it at most once per (executable, libraries) even under
// concurrent callers, and consulting the durable cache c (nil = none)
// on a memory miss.
func runNativeMemo(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	compute := func() (*vm.Result, error) {
		if c == nil {
			return vm.RunNative(exe, libs...)
		}
		k := artcache.Key{Kind: kindNative, Binary: binaryKey(exe, libs)}
		if data, hit := c.Get(k); hit {
			if res, err := vm.DecodeResult(data); err == nil {
				return res, nil
			}
		}
		res, err := vm.RunNative(exe, libs...)
		if err != nil {
			return nil, err
		}
		if data, err := vm.EncodeResult(res); err == nil {
			_ = c.Put(k, data)
		}
		return res, nil
	}
	lk, ok := libsKeyOf(libs)
	if !ok {
		return compute()
	}
	return nativeFlight.Do(runKey{exe: exe, libs: lk}, compute)
}

var analyzeFlight = singleflight.Flight[*obj.Executable, *analyzer.Program]{Limit: memoLimit}

// runAnalyzeMemo returns the static analysis of exe, running it at
// most once per executable. The shared Program is read-only: the
// profiling path only reads it (GenProfileSchedule builds a fresh
// schedule), and Parallelise applies profiles and selects loops on a
// per-run Program.Clone. Analysis results never reach the durable
// tier: a Program is an in-memory object graph with no serialised
// form.
func runAnalyzeMemo(exe *obj.Executable) (*analyzer.Program, error) {
	return analyzeFlight.Do(exe, func() (*analyzer.Program, error) {
		return analyzer.Analyze(exe)
	})
}

// profileKey identifies one profiling run: the binary, the analysis it
// was instrumented from (a different analysis of the same binary must
// not reuse the profile), and the library set.
type profileKey struct {
	exe  *obj.Executable
	prog *analyzer.Program
	libs libsKey
}

var profileFlight = singleflight.Flight[profileKey, *ProfileResult]{Limit: memoLimit}

// runProfilingMemo returns the training-stage profile for exe under
// prog, running it at most once per (executable, analysis, libraries)
// even under concurrent callers, and consulting the durable cache c
// (nil = none) on a memory miss. The durable key omits prog: every
// Program reaching this memo is an unmutated analysis of exe (the
// Apply* mutations happen downstream on per-run clones), so the binary
// fingerprint subsumes it.
func runProfilingMemo(c *artcache.Cache, exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	compute := func() (*ProfileResult, error) {
		if c == nil {
			return RunProfiling(exe, prog, libs...)
		}
		k := artcache.Key{Kind: kindProfile, Binary: binaryKey(exe, libs)}
		if data, hit := c.Get(k); hit {
			if pr, err := decodeProfile(data); err == nil {
				return pr, nil
			}
		}
		pr, err := RunProfiling(exe, prog, libs...)
		if err != nil {
			return nil, err
		}
		if data, err := encodeProfile(pr); err == nil {
			_ = c.Put(k, data)
		}
		return pr, nil
	}
	lk, ok := libsKeyOf(libs)
	if !ok {
		return compute()
	}
	return profileFlight.Do(profileKey{exe: exe, prog: prog, libs: lk}, compute)
}
