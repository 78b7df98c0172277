package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// parallelise runs the full figure-1(a) flow, one cold janus.Parallelise
// per op in figure 7's "Janus" configuration. The vm interpreter, the
// dbm and the profiler do almost all the work.
type parallelise struct {
	bins   []parBin
	pick   *picker
	expect map[string]string // figure-7 Janus column

	// Traced runs only: what an untraced Parallelise returned per
	// binary, which the step-by-step traced op must reproduce.
	refHash map[string]uint64
	acc     parAcc
}

type parBin struct {
	name       string
	ref, train *obj.Executable
	libs       []*obj.Library
}

// parAcc sums what traced ops observed.
type parAcc struct {
	nativeInsts int64
	stats       dbm.Stats
	loops, sel  int
	schedBytes  int
	runAt1      time.Duration
}

// janusConfig is figure 7's "Janus" bar: profile and checks on, 8
// threads, train inputs for profiling, verification against native.
func janusConfig(train *obj.Executable) janus.Config {
	return janus.Config{Threads: 8, UseProfile: true, UseChecks: true, TrainExe: train, Verify: true}
}

func setupParallelise(seed uint64, _ bool) (instance, error) {
	expect, err := fig7Janus(fig7Golden)
	if err != nil {
		return nil, err
	}
	workloads.ResetBuildCache()
	p := &parallelise{expect: expect, refHash: map[string]uint64{}}
	for _, name := range workloads.ParallelisableNames() {
		ref, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			return nil, err
		}
		train, _, err := workloads.Build(name, workloads.Train, workloads.O3)
		if err != nil {
			return nil, err
		}
		p.bins = append(p.bins, parBin{name: name, ref: ref, train: train, libs: libs})
	}
	p.pick = newPicker(seed, len(p.bins))
	return p, nil
}

func (p *parallelise) op() (cost, error) {
	b := p.bins[p.pick.next()]
	janus.ResetMemos() // every op is cold
	var rep *janus.Report
	c, err := measure(func() (err error) {
		rep, err = janus.Parallelise(b.ref, janusConfig(b.train), b.libs...)
		return err
	})
	if err != nil {
		return c, fmt.Errorf("%s: %w", b.name, err)
	}
	return c, checkSpeedup(p.expect, b.name, rep.Speedup())
}

// tracedOp runs Parallelise's steps through their public functions,
// each in a span, then re-times the region run at GOMAXPROCS 1 outside
// the op.
func (p *parallelise) tracedOp(tr *tracer) (cost, error) {
	b := p.bins[p.pick.next()]
	if _, ok := p.refHash[b.name]; !ok {
		janus.ResetMemos()
		rep, err := janus.Parallelise(b.ref, janusConfig(b.train), b.libs...)
		if err != nil {
			return cost{}, fmt.Errorf("%s: %w", b.name, err)
		}
		p.refHash[b.name] = rep.DBM.DataHash
	}
	janus.ResetMemos()

	var (
		prog, trainProg *analyzer.Program
		prof            *janus.ProfileResult
		sched           *rules.Schedule
		native          *vm.Result
		ex              *dbm.Executor
		res             *dbm.Result
		dcfg            = dbm.DefaultConfig(8)
	)
	c0 := cpuTime()
	op := tr.startOp()
	err := tr.steps(op, []step{
		{"analyze", "analyzer", func() (err error) { prog, err = analyzer.Analyze(b.ref); return }},
		{"analyze", "analyzer", func() (err error) { trainProg, err = analyzer.Analyze(b.train); return }},
		{"profile", "profiler", func() (err error) { prof, err = janus.RunProfiling(b.train, trainProg, b.libs...); return }},
		{"select", "analyzer", func() error {
			prog.ApplyCoverage(prof.Coverage)
			prog.ApplyExclCoverage(prof.ExclCoverage)
			prog.ApplyAvgIters(prof.AvgIters)
			prog.ApplyDependences(prof.Dependences)
			prog.SelectLoops(analyzer.SelectOptions{UseProfile: true, UseChecks: true, MinCoverage: analyzer.DefaultMinCoverage})
			return nil
		}},
		{"gen", "rules", func() (err error) { sched, err = prog.GenParallelSchedule(); return }},
		{"native", "vm", func() (err error) { native, err = janus.RunNativeBaseline(b.ref, b.libs...); return }},
		{"dbm.new", "dbm", func() (err error) { ex, err = dbm.New(b.ref, sched, dcfg, b.libs...); return }},
		{"dbm.run", "dbm", func() (err error) { res, err = ex.Run(); return }},
		{"verify", "janus", func() error { return sameRun(native, &res.Result) }},
	})
	lat := cost{wall: tr.end(op), cpu: cpuTime() - c0}
	if err != nil {
		return lat, fmt.Errorf("%s: %w", b.name, err)
	}
	if err := checkSpeedup(p.expect, b.name, float64(native.Cycles)/float64(res.Cycles)); err != nil {
		return lat, err
	}
	if res.DataHash != p.refHash[b.name] {
		return lat, fmt.Errorf("%s: traced DataHash %#x, Parallelise %#x: %w", b.name, res.DataHash, p.refHash[b.name], errMismatch)
	}

	// The same region run with one host thread: how much host
	// parallelism the region engines get on this machine.
	prev := runtime.GOMAXPROCS(1)
	ex1, err := dbm.New(b.ref, sched, dcfg, b.libs...)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return lat, fmt.Errorf("%s: dbm.New at GOMAXPROCS 1: %w", b.name, err)
	}
	id := tr.root("dbm.run.gomaxprocs1", "dbm")
	res1, err := ex1.Run()
	at1 := tr.end(id)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return lat, fmt.Errorf("%s: dbm run at GOMAXPROCS 1: %w", b.name, err)
	}
	if res1.Cycles != res.Cycles || res1.DataHash != res.DataHash {
		return lat, fmt.Errorf("%s: GOMAXPROCS 1 run differs: %w", b.name, errMismatch)
	}

	img, err := sched.Save()
	if err != nil {
		return lat, fmt.Errorf("%s: save schedule: %w", b.name, err)
	}
	a := &p.acc
	a.nativeInsts += native.Insts
	addStats(&a.stats, res.Stats)
	a.loops += len(prog.Loops)
	a.sel += len(outcomeOf(prog).Selected)
	a.schedBytes += len(img)
	a.runAt1 += at1
	return lat, nil
}

// sameRun is Parallelise's verification: outputs and data memory equal
// to native execution.
func sameRun(native, got *vm.Result) error {
	if !slices.Equal(native.Output, got.Output) || native.DataHash != got.DataHash {
		return fmt.Errorf("DBM run differs from native: %w", errMismatch)
	}
	return nil
}

func addStats(sum *dbm.Stats, s dbm.Stats) {
	sum.TransBlocks += s.TransBlocks
	sum.ParRegions += s.ParRegions
	sum.HostParRegions += s.HostParRegions
	sum.StealRegions += s.StealRegions
	sum.SeqFallbacks += s.SeqFallbacks
	sum.ParRecoveries += s.ParRecoveries
	sum.ChecksRun += s.ChecksRun
	sum.ChecksFailed += s.ChecksFailed
	sum.TxStarted += s.TxStarted
	sum.TxCommits += s.TxCommits
	sum.TxAborts += s.TxAborts
}

func (p *parallelise) layers(m metrics, tr *tracer, ops int) error {
	if ops == 0 {
		return fmt.Errorf("no traced op completed")
	}
	n := float64(ops)
	per := func(d time.Duration) float64 { return ms(d) / n }
	a := p.acc
	native := tr.total("native")
	m.set("vm.native_ms", per(native))
	m.set("vm.native_minst_per_s", float64(a.nativeInsts)/1e6/native.Seconds())
	m.set("dbm.new_ms", per(tr.total("dbm.new")))
	run := tr.total("dbm.run")
	m.set("dbm.run_ms", per(run))
	m.set("dbm.run_ms.gomaxprocs1", per(a.runAt1))
	m.set("dbm.hostpar_gain", a.runAt1.Seconds()/run.Seconds())
	st := a.stats
	for name, v := range map[string]int64{
		"dbm.trans_blocks":    st.TransBlocks,
		"dbm.par_regions":     st.ParRegions,
		"dbm.hostpar_regions": st.HostParRegions,
		"dbm.steal_regions":   st.StealRegions,
		"dbm.seq_fallbacks":   st.SeqFallbacks,
		"dbm.par_recoveries":  st.ParRecoveries,
		"dbm.checks_run":      st.ChecksRun,
		"dbm.checks_failed":   st.ChecksFailed,
		"stm.tx_started":      st.TxStarted,
		"stm.tx_commits":      st.TxCommits,
		"stm.tx_aborts":       st.TxAborts,
	} {
		m.set(name, float64(v)/n)
	}
	if st.TxStarted > 0 {
		m.set("stm.commit_ratio", float64(st.TxCommits)/float64(st.TxStarted))
	}
	m.set("profiler.profile_ms", per(tr.total("profile")))
	m.set("analyzer.analyze_ms", per(tr.total("analyze")))
	m.set("analyzer.select_ms", per(tr.total("select")))
	m.set("analyzer.loops", float64(a.loops)/n)
	m.set("analyzer.loops_selected", float64(a.sel)/n)
	m.set("rules.gen_ms", per(tr.total("gen")))
	m.set("rules.schedule_bytes", float64(a.schedBytes)/n)
	return nil
}

func (p *parallelise) close() error { return nil }
