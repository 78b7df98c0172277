package rules_test

import (
	"bytes"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// FuzzScheduleLoad treats a schedule image as untrusted input. Load is
// total: it returns a schedule or an error for any byte string, and
// never panics. An image that loads re-serialises to a canonical form
// that is a fixed point of Save∘Load: the DBM cache keys a run by the
// SHA-256 of Save's bytes, so a schedule whose bytes drift across a
// round trip would key one schedule two ways.
//
// Seeds are the parallel (static + checks) and profiling schedules of a
// few workloads, covering every payload kind the generator emits, plus
// each image truncated by one byte.
func FuzzScheduleLoad(f *testing.F) {
	for _, name := range []string{"410.bwaves", "462.libquantum", "470.lbm"} {
		exe, _, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			f.Fatal(err)
		}
		prog, err := analyzer.Analyze(exe)
		if err != nil {
			f.Fatal(err)
		}
		prog.SelectLoops(analyzer.SelectOptions{UseChecks: true})
		par, err := prog.GenParallelSchedule()
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range []*rules.Schedule{par, prog.GenProfileSchedule()} {
			img, err := s.Save()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(img)
			f.Add(img[:len(img)-1])
		}
	}
	f.Add([]byte("JRS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, img []byte) {
		s, err := rules.Load(img)
		if err != nil {
			return
		}
		canon, err := s.Save()
		if err != nil {
			t.Fatalf("loaded schedule does not save: %v", err)
		}
		back, err := rules.Load(canon)
		if err != nil {
			t.Fatalf("canonical image does not load: %v", err)
		}
		again, err := back.Save()
		if err != nil {
			t.Fatalf("reloaded schedule does not save: %v", err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("Save(Load(img)) is not a fixed point: %d bytes, then %d", len(canon), len(again))
		}
	})
}
