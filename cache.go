package janus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/singleflight"
	"janus/internal/vm"
)

// Durable cache tier. Every pipeline stage here is a deterministic
// function of its binary (plus schedule and configuration), so its
// result can be stored on disk keyed by content and replayed across
// processes: a warm `janus-bench` run recomputes nothing yet must stay
// byte-identical to a cold one. The in-memory singleflight memos remain
// the first tier; the artcache is consulted on a memory miss, and a
// computed result is published for the next process.
//
// DBM results have their own memory tier (dbmFlight below), keyed by
// pointer, schedule digest and dbm.Config, which only runs when a
// durable cache is configured: with no cache every DBM call executes.
// A hit there formats and hashes nothing beyond the schedule digest;
// the content key is built only on a memory miss.
//
// Artifact kinds are version-tagged (the same convention as the
// BENCH_engine.json schema tag): any change to a payload layout or to
// the semantics feeding it must bump the kind, which orphans old
// entries — they simply stop matching and age out via LRU.
const (
	kindNative  = "native-v1"
	kindProfile = "profile-v1"
	kindDBM     = "dbm-v1"
)

// binaryKey is the content identity of (executable, library set): the
// fingerprint of every mapped image, in load order.
func binaryKey(exe *obj.Executable, libs []*obj.Library) string {
	var sb strings.Builder
	sb.WriteString(exe.Fingerprint())
	for _, l := range libs {
		sb.WriteByte('+')
		sb.WriteString(l.Fingerprint())
	}
	return sb.String()
}

// scheduleDigest is the SHA-256 of a rewrite schedule's serialised
// form; a nil schedule (the bare-DBM baseline) has the zero digest.
// ok=false (unserialisable schedule) means the caller must bypass both
// cache tiers — a shared sentinel key would alias distinct schedules.
func scheduleDigest(sched *rules.Schedule) (d [sha256.Size]byte, ok bool) {
	if sched == nil {
		return d, true
	}
	img, err := sched.Save()
	if err != nil {
		return d, false
	}
	return sha256.Sum256(img), true
}

// scheduleKey is the durable-key form of a schedule digest. Its bytes
// are part of every dbm-v1 key on disk: any change to rules.Save's
// output orphans them (TestScheduleKeysPinned guards this).
func scheduleKey(d [sha256.Size]byte) string {
	if d == ([sha256.Size]byte{}) {
		return "none"
	}
	return hex.EncodeToString(d[:])
}

// dbmConfigKey folds every Config field that can influence a Result —
// including the engine-selection knob, which leaves virtual cycles
// untouched but is attributed in Stats (HostParRegions) — into a
// canonical string. Inject and Profile are absent because injected
// and profiling runs never reach the cache.
func dbmConfigKey(c dbm.Config) string {
	return fmt.Sprintf("threads=%d parallel=%t hostpar=%t miniter=%d maxsteps=%d cost=%+v",
		c.Threads, c.Parallel, c.HostParallel, c.MinIterPerThread, c.MaxSteps, c.Cost)
}

// dbmMemoLimit bounds the DBM-result tier. It is larger than memoLimit
// because one binary has many DBM results (a bare run, each figure-7
// bar, each figure-9 thread count): the full suite makes 110, and a
// second in-process render must find every one.
const dbmMemoLimit = 256

// dbmKey identifies one DBM run in memory. dbm.Config is comparable
// and its Inject field is always nil here, so the whole configuration
// is the key and a hit formats no strings.
type dbmKey struct {
	exe   *obj.Executable
	libs  libsKey
	sched [sha256.Size]byte
	cfg   dbm.Config
}

var dbmFlight = singleflight.Flight[dbmKey, *dbm.Result]{Limit: dbmMemoLimit}

// runDBMCached executes exe under the DBM when a durable cache c is
// configured, looking the result up in memory first, then on disk by
// content key. The returned Result may be shared with other callers
// and must be treated as read-only.
//
// With c == nil every call executes the DBM: the memory tier exists to
// serve warm requests above the durable one, and the determinism,
// fault-injection and engine A/B tests, which run without a cache,
// rely on a real execution per call. Fault-injected runs bypass both
// tiers unconditionally: their recovery counters must come from a
// real execution, and a plan's effect is not part of the key.
// Profiling runs go through the dedicated profile artifact instead.
func runDBMCached(c *artcache.Cache, exe *obj.Executable, sched *rules.Schedule, dcfg dbm.Config, libs ...*obj.Library) (*dbm.Result, error) {
	run := func() (*dbm.Result, error) {
		ex, err := dbm.New(exe, sched, dcfg, libs...)
		if err != nil {
			return nil, err
		}
		return ex.Run()
	}
	if c == nil || dcfg.Inject != nil || dcfg.Profile {
		return run()
	}
	digest, ok := scheduleDigest(sched)
	if !ok {
		return run()
	}
	compute := func() (*dbm.Result, error) {
		k := artcache.Key{Kind: kindDBM, Binary: binaryKey(exe, libs), Input: scheduleKey(digest), Config: dbmConfigKey(dcfg)}
		if data, hit := c.Get(k); hit {
			if res, err := dbm.DecodeResult(data); err == nil {
				return res, nil
			}
			// Verified entry with an undecodable payload: a schema skew
			// the kind tag failed to capture. Recompute and overwrite.
		}
		res, err := run()
		if err != nil {
			return nil, err
		}
		if data, err := dbm.EncodeResult(res); err == nil {
			_ = c.Put(k, data) // cache write failure must never fail the run
		}
		return res, nil
	}
	lk, ok := libsKeyOf(libs)
	if !ok {
		return compute()
	}
	return dbmFlight.Do(dbmKey{exe: exe, libs: lk, sched: digest, cfg: dcfg}, compute)
}

// profilePayload is the disk form of a ProfileResult: the four
// deterministic profile maps. The Executor is process-local state
// (raw coverage tables, dependence sets) and is nil on a cache load;
// nothing downstream of the memo reads it.
type profilePayload struct {
	Coverage     map[int]float64
	ExclCoverage map[int]float64
	AvgIters     map[int]float64
	Dependences  map[int]bool
}

func encodeProfile(pr *ProfileResult) ([]byte, error) {
	return json.Marshal(profilePayload{
		Coverage:     pr.Coverage,
		ExclCoverage: pr.ExclCoverage,
		AvgIters:     pr.AvgIters,
		Dependences:  pr.Dependences,
	})
}

func decodeProfile(data []byte) (*ProfileResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p profilePayload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("janus: decode cached profile: %w", err)
	}
	return &ProfileResult{
		Coverage:     p.Coverage,
		ExclCoverage: p.ExclCoverage,
		AvgIters:     p.AvgIters,
		Dependences:  p.Dependences,
	}, nil
}

// ResetMemos drops every completed entry from the in-memory memo
// tables, the DBM-result tier included. Tests use it to force the next
// run through the durable tier; in-flight computations are unaffected.
func ResetMemos() {
	nativeFlight.Reset()
	analyzeFlight.Reset()
	profileFlight.Reset()
	dbmFlight.Reset()
}

// RunNativeBaselineCached is RunNativeBaseline backed by a durable
// artifact cache (nil c degrades to the in-memory memo alone).
func RunNativeBaselineCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	return runNativeMemo(c, exe, libs...)
}

// RunBareDBMCached is RunBareDBM backed by a durable artifact cache
// (nil c recomputes every time, matching RunBareDBM).
func RunBareDBMCached(c *artcache.Cache, exe *obj.Executable, libs ...*obj.Library) (*dbm.Result, error) {
	return runDBMCached(c, exe, nil, dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}, libs...)
}

// RunProfilingCached is RunProfiling behind both memo tiers. On a
// durable-cache hit the returned ProfileResult carries the four
// profile maps but a nil Executor; callers needing the raw profiler
// state must use RunProfiling directly.
func RunProfilingCached(c *artcache.Cache, exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	return runProfilingMemo(c, exe, prog, libs...)
}
