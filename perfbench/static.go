package main

import (
	"fmt"

	"janus/internal/analyzer"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// staticSchedule runs the static half of the pipeline, the path of
// `janus schedule -o` without a profile: analysis, static loop
// selection, schedule generation and serialisation. It isolates the
// analyzer and rules, a few percent of parallelise but all of this op.
type staticSchedule struct {
	bins []staticBin
	pick *picker
	acc  struct{ loops, sel, bytes int }
}

type staticBin struct {
	name string
	exe  *obj.Executable
	want staticOutcome
}

// staticSelect is figure 7's "static" bar: no profile, no checks.
var staticSelect = analyzer.SelectOptions{MinCoverage: analyzer.DefaultMinCoverage}

func setupStatic(seed uint64, _ bool) (instance, error) {
	want, err := loadStaticExpected()
	if err != nil {
		return nil, err
	}
	workloads.ResetBuildCache()
	s := &staticSchedule{}
	for _, name := range workloads.Names() {
		exe, _, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			return nil, err
		}
		w, ok := want[name]
		if !ok {
			return nil, fmt.Errorf("%s: no static-schedule reference", name)
		}
		s.bins = append(s.bins, staticBin{name: name, exe: exe, want: w})
	}
	s.pick = newPicker(seed, len(s.bins))
	return s, nil
}

// schedule is the op: analyse, select, generate, save.
func schedule(exe *obj.Executable) (*analyzer.Program, []byte, error) {
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		return nil, nil, err
	}
	prog.SelectLoops(staticSelect)
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		return nil, nil, err
	}
	img, err := sched.Save()
	return prog, img, err
}

func (s *staticSchedule) op() (cost, error) {
	b := s.bins[s.pick.next()]
	var (
		prog *analyzer.Program
		img  []byte
	)
	lat, err := measure(func() (err error) {
		prog, img, err = schedule(b.exe)
		return err
	})
	if err != nil {
		return lat, fmt.Errorf("%s: %w", b.name, err)
	}
	return lat, checkStatic(b.name, b.want, outcomeOf(prog), img)
}

func (s *staticSchedule) tracedOp(tr *tracer) (cost, error) {
	b := s.bins[s.pick.next()]
	var (
		prog  *analyzer.Program
		sched *rules.Schedule
		img   []byte
	)
	c0 := cpuTime()
	op := tr.startOp()
	err := tr.steps(op, []step{
		{"analyze", "analyzer", func() (err error) { prog, err = analyzer.Analyze(b.exe); return }},
		{"select", "analyzer", func() error { prog.SelectLoops(staticSelect); return nil }},
		{"gen", "rules", func() (err error) { sched, err = prog.GenParallelSchedule(); return }},
		{"save", "rules", func() (err error) { img, err = sched.Save(); return }},
	})
	lat := cost{wall: tr.end(op), cpu: cpuTime() - c0}
	if err != nil {
		return lat, fmt.Errorf("%s: %w", b.name, err)
	}
	if err := checkStatic(b.name, b.want, outcomeOf(prog), img); err != nil {
		return lat, err
	}
	s.acc.loops += len(prog.Loops)
	s.acc.sel += len(outcomeOf(prog).Selected)
	s.acc.bytes += len(img)
	return lat, nil
}

func (s *staticSchedule) layers(m metrics, tr *tracer, ops int) error {
	if ops == 0 {
		return fmt.Errorf("no traced op completed")
	}
	n := float64(ops)
	m.set("analyzer.analyze_ms", ms(tr.total("analyze"))/n)
	m.set("analyzer.select_ms", ms(tr.total("select"))/n)
	m.set("analyzer.loops", float64(s.acc.loops)/n)
	m.set("analyzer.loops_selected", float64(s.acc.sel)/n)
	m.set("rules.gen_ms", ms(tr.total("gen"))/n)
	m.set("rules.save_ms", ms(tr.total("save"))/n)
	m.set("rules.schedule_bytes", float64(s.acc.bytes)/n)
	return nil
}

func (s *staticSchedule) close() error { return nil }
