package janus

import (
	"testing"

	"janus/internal/workloads"
)

// pinnedScheduleKeys are the durable schedule keys of figure 7's
// "Janus" bar (static + profile + checks, 8 threads, train profile,
// ref binary). Every dbm-v1 entry on disk is keyed by one of these
// strings, so a byte change in rules.Save — or in the analysis that
// feeds it — orphans the whole DBM store. A deliberate change must
// bump kindDBM and re-pin these values.
var pinnedScheduleKeys = map[string]string{
	"410.bwaves":     "d890271114f3f01bf638706387099b4ec5f8274460785a165c966705efcd8d45",
	"433.milc":       "0b6c3867d972e8776867399399d9a41daa2ef7c3b6ce38887fe494317a3280cf",
	"436.cactusADM":  "20837c70e9d9a7965e8ec4f779761ec6199330520512a8291971f6304ed90a7b",
	"437.leslie3d":   "6a1037605ee6ac3459417a7a2390afae52c59da02828705bc996c6c518f9f8af",
	"459.GemsFDTD":   "37c2c02af8893d7d71700a6602e5107f352d1d5df8a34624da995ea7edabbdac",
	"462.libquantum": "e7d977ff94309d6ba7db4c0ad858aa9f1967f326d0bb45ce5bddcd0879bea6bf",
	"464.h264ref":    "ff80dc9881b13919aeeec54e8563bfc2481f0a2fd275d3b0a687d91738e4d070",
	"470.lbm":        "55fb3e5d0b246692a6456e61e64fc988feeabe2c32aeff23dc7ba7728db0b697",
	"482.sphinx3":    "a5c315660dddd8211e97127036379e78965739c3b6eccfc5a171aad70b9491c7",
}

func TestScheduleKeysPinned(t *testing.T) {
	names := workloads.ParallelisableNames()
	if len(names) != len(pinnedScheduleKeys) {
		t.Fatalf("%d parallelisable binaries, %d pinned keys", len(names), len(pinnedScheduleKeys))
	}
	for _, name := range names {
		exe, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Parallelise(exe, Config{Threads: 8, UseProfile: true, UseChecks: true, TrainExe: train}, libs...)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := scheduleDigest(rep.Schedule)
		if !ok {
			t.Fatalf("%s: schedule does not serialise", name)
		}
		if got, want := scheduleKey(d), pinnedScheduleKeys[name]; got != want {
			t.Errorf("%s: schedule key %s, pinned %s", name, got, want)
		}
	}
}
