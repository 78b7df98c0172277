// Command perfbench is the repository's benchmark. It is an outside
// client of the janus packages: it times closed-loop workloads end to
// end and, in a separate traced run, layer by layer, and it checks every
// op's output against references kept in testdata/. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload parallelise --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits nonzero when
// any op fails or mismatches its reference.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workDir holds everything a run writes (artifact caches, traces). It
// is relative to the working directory, the repository root.
const workDir = ".bench_build"

// workload is one closed-loop traffic mix with a single client.
type workload struct {
	name string
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// setup builds a ready instance from the seed. traced tells it the
	// run will ask for per-layer metrics.
	setup func(seed uint64, traced bool) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// op runs one op and checks its output. The cost it returns leaves
	// the check out.
	op() (cost, error)
	// tracedOp is op with spans recorded in tr.
	tracedOp(tr *tracer) (cost, error)
	// layers fills the per-layer metrics after the traced phase, in
	// which ops traced ops completed.
	layers(m metrics, tr *tracer, ops int) error
	close() error
}

var allWorkloads = []workload{
	{name: "parallelise", setupReps: 10, setup: setupParallelise},
	{name: "served-warm", setupReps: 3, setup: setupServed},
	{name: "static-schedule", setupReps: 10, setup: setupStatic},
}

func main() {
	name := flag.String("workload", "", "workload: parallelise, served-warm or static-schedule")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a metric that must be declared in endToEnd or perLayer.
func (m metrics) set(name string, v float64) {
	unit, ok := unitOf(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // only when a phase completed no op, which fails the run
	}
	m[name] = metric{Value: v, Unit: unit}
}

func run(w workload, seed uint64, d time.Duration, traced bool) (result, error) {
	var inst instance
	var setupCPU, setupWall []float64
	reps := w.setupReps
	if traced {
		reps = 1 // setup_s is not reported
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		c, err := measure(func() (err error) {
			inst, err = w.setup(seed, traced)
			return err
		})
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupCPU = append(setupCPU, c.cpu.Seconds())
		setupWall = append(setupWall, c.wall.Seconds())
	}

	m := metrics{}
	var ph phase
	if !traced {
		ph = runPhase(d, inst.op)
		m.set("setup_s", median(setupCPU))
		m.set("ops_per_cpu_s", perSecond(ph.cpu))
		m.set("cpu_ms_p50", ms(percentile(ph.cpu, 0.5)))
		m.set("cpu_ms_p90", ms(percentile(ph.cpu, 0.9)))
		m.set("alloc_mb_per_op", float64(ph.allocBytes)/1e6/float64(max(len(ph.cpu), 1)))
		m.set("peak_heap_mb", float64(ph.peakHeap)/1e6)
		fmt.Printf("wall clock (not gated): set-up %.4f s, %.2f ops/s, latency p50 %.4f ms, p90 %.4f ms\n",
			median(setupWall), perSecond(ph.wall), ms(percentile(ph.wall, 0.5)), ms(percentile(ph.wall, 0.9)))
	} else {
		// The untraced half gives the cost the traced half is compared
		// with; tracing overhead is their difference.
		base := runPhase(d/2, inst.op)
		tr := newTracer()
		ph = runPhase(d/2, func() (cost, error) { return inst.tracedOp(tr) })
		ph.attempted += base.attempted
		ph.errs = append(base.errs, ph.errs...)
		for _, p := range perLayer {
			m.set(p.name, 0)
		}
		if err := inst.layers(m, tr, len(ph.cpu)); err != nil {
			return result{}, errors.Join(fmt.Errorf("%s: per-layer metrics: %w", w.name, err), inst.close())
		}
		m.set("trace.coverage_frac", tr.coverage())
		m.set("trace.overhead_frac", ms(percentile(ph.cpu, 0.5))/ms(percentile(base.cpu, 0.5))-1)
		fmt.Print(tr.shareTable(w.name))
		path, err := tr.write(w.name, seed)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	if err := inst.close(); err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	for i, err := range ph.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(ph.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
	failed := len(ph.errs)
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, failed_frac %g\n",
		w.name, seed, ph.attempted, failed, float64(failed)/float64(max(ph.attempted, 1)))
	return result{Correct: failed == 0, Attempted: max(ph.attempted, 1), Failed: failed, Metrics: m}, nil
}

func printResult(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and plain maps reach here
	}
	fmt.Println(string(line))
}
