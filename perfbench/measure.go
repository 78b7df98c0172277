package main

import (
	"cmp"
	"math"
	"math/rand/v2"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Op cost is the
// process's CPU time, not wall-clock time: the guest kernel does not
// charge a thread for time the hypervisor steals from its vCPU, so CPU
// time stays put while a shared host's load comes and goes (README.md
// has the measurements). Wall-clock figures are printed but not gated.
var endToEnd = []declared{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "ops/s", "higher"},
	{"cpu_ms_p50", "ms", "lower"},
	{"cpu_ms_p90", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer a workload does
// not exercise reports 0. Times and counts are means per traced op
// unless the name says otherwise.
var perLayer = []declared{
	{"vm.native_ms", "ms", "lower"},
	{"vm.native_minst_per_s", "Minst/s", "higher"},
	{"dbm.new_ms", "ms", "lower"},
	{"dbm.run_ms", "ms", "lower"},
	{"dbm.run_ms.gomaxprocs1", "ms", "lower"},
	{"dbm.hostpar_gain", "ratio", "higher"},
	{"dbm.trans_blocks", "count", "lower"},
	{"dbm.par_regions", "count", "higher"},
	{"dbm.hostpar_regions", "count", "higher"},
	{"dbm.steal_regions", "count", "higher"},
	{"dbm.seq_fallbacks", "count", "lower"},
	{"dbm.par_recoveries", "count", "lower"},
	{"dbm.checks_run", "count", "lower"},
	{"dbm.checks_failed", "count", "lower"},
	{"stm.tx_started", "count", "lower"},
	{"stm.tx_commits", "count", "higher"},
	{"stm.tx_aborts", "count", "lower"},
	{"stm.commit_ratio", "ratio", "higher"},
	{"profiler.profile_ms", "ms", "lower"},
	{"analyzer.analyze_ms", "ms", "lower"},
	{"analyzer.select_ms", "ms", "lower"},
	{"analyzer.loops", "count", "higher"},
	{"analyzer.loops_selected", "count", "higher"},
	{"rules.gen_ms", "ms", "lower"},
	{"rules.save_ms", "ms", "lower"},
	{"rules.schedule_bytes", "B", "lower"},
	{"artcache.hits_per_op", "count", "lower"},
	{"artcache.misses_per_op", "count", "lower"},
	{"artcache.bad_per_op", "count", "lower"},
	{"artcache.hit_ratio", "ratio", "higher"},
	{"harness.render_ms", "ms", "lower"},
	{"harness.rows_per_op", "count", "higher"},
	{"harness.row_ms_p50", "ms", "lower"},
	{"harness.row_ms_max", "ms", "lower"},
	{"janusd.rtt_ms_p50", "ms", "lower"},
	{"janusd.server_ms_p50", "ms", "lower"},
	{"janusd.overhead_ms_p50", "ms", "lower"},
	{"janusd.shed", "count", "lower"},
	{"janusd.queued_max", "count", "lower"},
	{"trace.coverage_frac", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

func unitOf(name string) (string, bool) {
	for _, list := range [][]declared{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// cost is what one op consumed.
type cost struct {
	wall time.Duration
	cpu  time.Duration // CPU time of the whole process
}

// measure runs f and returns its cost.
func measure(f func() error) (cost, error) {
	c0, t0 := cpuTime(), time.Now()
	err := f()
	return cost{wall: time.Since(t0), cpu: cpuTime() - c0}, err
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is what one timed phase observed.
type phase struct {
	wall, cpu  []time.Duration // costs of completed ops
	attempted  int
	errs       []error
	allocBytes uint64 // Go heap bytes allocated during the phase
	peakHeap   uint64 // see sampleHeap
}

// runPhase calls op in a closed loop until d has passed, and samples
// the Go heap meanwhile. There is one client: with one op in flight
// the process's CPU time is that op's cost.
func runPhase(d time.Duration, op func() (cost, error)) phase {
	var p phase
	runtime.GC() // start from the live heap alone, whatever set-up left
	stopHeap := sampleHeap()
	a0 := readMetric("/gc/heap/allocs:bytes")
	for start := time.Now(); time.Since(start) < d; {
		c, err := op()
		p.attempted++
		if err != nil {
			p.errs = append(p.errs, err)
			continue
		}
		p.wall = append(p.wall, c.wall)
		p.cpu = append(p.cpu, c.cpu)
	}
	p.allocBytes = readMetric("/gc/heap/allocs:bytes") - a0
	p.peakHeap = stopHeap()
	return p
}

// perSecond is how many ops ran per second of the given costs.
func perSecond(costs []time.Duration) float64 {
	var sum time.Duration
	for _, c := range costs {
		sum += c
	}
	return float64(len(costs)) / sum.Seconds()
}

func readMetric(name string) uint64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeap polls the runtime every 5 ms until the returned function
// is called. That function returns the 99th percentile of the live heap
// left by each GC cycle seen: the peak a typical run reaches, where the
// single largest cycle would depend on when one GC happened to end.
func sampleHeap() func() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var lastCycle uint64
	var live []uint64
	stop := poll(5*time.Millisecond, func() {
		rtmetrics.Read(s)
		if c := s[0].Value.Uint64(); c != lastCycle {
			lastCycle = c
			live = append(live, s[1].Value.Uint64())
		}
	})
	return func() uint64 {
		stop()
		return percentile(live, 0.99)
	}
}

// poll calls f now and every d until the returned function is called,
// which returns once f has run for the last time.
func poll(d time.Duration, f func()) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			f()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// percentile is the nearest-rank q-quantile of xs (0 when empty).
func percentile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// picker draws indices in [0,n) in seeded shuffled rounds: every index
// once per round, in a fresh order each round. Over a run every input
// is drawn equally often (±1), so the op mix, and with it the latency
// percentiles, does not swing with the seed the way independent draws
// would.
type picker struct {
	rng  *rand.Rand
	perm []int
	i    int
}

func newPicker(seed uint64, n int) *picker {
	p := &picker{rng: rand.New(rand.NewPCG(seed, 0)), perm: make([]int, n)}
	p.i = n
	return p
}

func (p *picker) next() int {
	if p.i == len(p.perm) {
		for i, v := range p.rng.Perm(len(p.perm)) {
			p.perm[i] = v
		}
		p.i = 0
	}
	p.i++
	return p.perm[p.i-1]
}
