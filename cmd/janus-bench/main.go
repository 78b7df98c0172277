// Command janus-bench regenerates the paper's evaluation tables and
// figures over the synthetic workload suite:
//
//	janus-bench                          all experiments
//	janus-bench -fig 7                   one figure (6..12)
//	janus-bench -table 1                 one table (1 or 2)
//	janus-bench -jobs 4                  run up to 4 benchmark rows
//	                                     concurrently (output is
//	                                     byte-identical at any value)
//	janus-bench -host-parallel=false     force the single-goroutine region
//	                                     engine (outputs are byte-identical)
//	janus-bench -engine-json BENCH_engine.json
//	                                     execution-engine perf snapshot
//	janus-bench -inject scan-defeat      arm deterministic fault injection
//	                                     in speculative regions; recovery
//	                                     re-executes them round-robin, so
//	                                     stdout stays byte-identical and a
//	                                     recovery summary goes to stderr.
//	                                     Spec: point[@every][#seed], point
//	                                     one of scan-defeat, worker-panic,
//	                                     stall, budget
//	janus-bench -gen-corpus 50           screen 50 generated kernels with
//	                                     the differential oracle and
//	                                     graduate interesting ones into
//	                                     the benchmark corpus for this
//	                                     run (figures gain gen/* rows;
//	                                     default output is unchanged when
//	                                     the flag is absent)
//	janus-bench -campaign CORPUSDIR      run a resumable shape-vector fuzz
//	                                     campaign: breed shapes from the
//	                                     persisted corpus, keep the ones
//	                                     that cover new coverage cells, and
//	                                     graduate divergence-finding shapes
//	                                     into regression fixtures. Safe to
//	                                     kill -9 and re-run: the corpus
//	                                     directory is published atomically
//	                                     and the campaign resumes where it
//	                                     stopped. Prints a stats line and
//	                                     exits nonzero on divergence; the
//	                                     default figure/table output is not
//	                                     produced in this mode.
//	janus-bench -campaign-secs 30        campaign time budget in seconds
//	                                     (default 30; used with -campaign)
//	janus-bench -campaign-seed 1         campaign decision-stream seed; a
//	                                     corpus dir remembers its seed and
//	                                     refuses to resume under another
//	janus-bench -cache-dir .janus-cache  store builds, native baselines,
//	                                     profiles and DBM results in a
//	                                     durable on-disk artifact cache;
//	                                     a warm re-run replays them and
//	                                     prints hit/miss counters to
//	                                     stderr. Output is byte-identical
//	                                     with the cache off, cold or warm.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"janus/internal/artcache"
	"janus/internal/faultinject"
	"janus/internal/genkern"
	"janus/internal/harness"
)

func main() {
	def := harness.DefaultOptions()
	fig := flag.Int("fig", 0, "regenerate one figure (6..12); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (1 or 2); 0 = all")
	threads := flag.Int("threads", def.Threads, "guest thread count")
	jobs := flag.Int("jobs", def.Jobs, "how many benchmark rows run concurrently across the suite (figure/table outputs are byte-identical at any value)")
	hostParallel := flag.Bool("host-parallel", !def.SingleGoroutine, "run eligible parallel regions on host goroutines; false forces the single-goroutine round-robin engine (figure/table outputs are bit-identical either way)")
	engineJSON := flag.String("engine-json", "", "run the execution-engine micro-benchmarks and write a JSON perf snapshot to this path")
	inject := flag.String("inject", "", "arm deterministic fault injection in speculative regions, spec point[@every][#seed] with point one of scan-defeat, worker-panic, stall, budget (recovery keeps stdout byte-identical; summary on stderr)")
	genCorpus := flag.Int("gen-corpus", 0, "screen N seeded generated kernels against the differential oracle and graduate interesting ones into this run's benchmark corpus (0 = off; the default suite and its golden output are unchanged)")
	campaign := flag.String("campaign", "", "run a resumable shape-vector fuzz campaign persisting its corpus in this directory (skips figure/table rendering; exits nonzero on divergence)")
	campaignSecs := flag.Int("campaign-secs", 30, "campaign time budget in seconds (with -campaign)")
	campaignSeed := flag.Uint64("campaign-seed", 1, "campaign decision-stream seed (with -campaign); a corpus dir refuses to resume under a different seed")
	campaignPlant := flag.Bool("campaign-plant", false, "plant a deliberate mis-classification in every campaign oracle run (fuzzer self-test: the campaign must catch it, graduate a regression, and exit nonzero at the first divergence)")
	cacheDir := flag.String("cache-dir", "", "durable artifact cache directory (empty = off); figure/table outputs are byte-identical with the cache off, cold or warm, and the directory is safe to share between processes")
	flag.Parse()

	opts := harness.Options{
		Threads:         *threads,
		Jobs:            *jobs,
		SingleGoroutine: !*hostParallel,
		Recovery:        &harness.RecoveryLog{},
		CacheDir:        *cacheDir,
	}
	// Open the store here too: OpenShared dedups per directory, so this
	// handle observes the same counters the harness increments.
	var cache *artcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = artcache.OpenShared(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "janus-bench:", err)
			os.Exit(1)
		}
	}
	// The stderr counter lines are part of the tool's contract even when
	// a run dies partway: a failed run with a cache attached still
	// reports its hit/miss counters, and a campaign that errors mid-run
	// still prints the stats it accumulated. flushCache runs on every
	// exit path below; fail is exitOn with the counters flushed first.
	flushCache := func() {
		if cache != nil {
			fmt.Fprintln(os.Stderr, "janus-bench: artcache:", cache.Stats())
		}
	}
	fail := func(err error) {
		flushCache()
		fmt.Fprintln(os.Stderr, "janus-bench:", err)
		os.Exit(1)
	}
	if *inject != "" {
		plan, err := faultinject.ParsePlan(*inject)
		if err != nil {
			fail(err)
		}
		opts.Inject = plan
	}

	if *engineJSON != "" {
		if err := writeEngineSnapshot(*engineJSON, opts); err != nil {
			fail(err)
		}
		flushCache()
		return
	}

	if *campaign != "" {
		// Campaign mode replaces figure/table rendering entirely: the
		// default suite, its registry and the golden output are untouched.
		stats, err := genkern.RunCampaign(genkern.CampaignConfig{
			Dir:      *campaign,
			Seed:     *campaignSeed,
			Duration: time.Duration(*campaignSecs) * time.Second,
			Threads:  opts.Threads,
			Plant:    *campaignPlant,
			// A planted campaign exists to prove the loop catches bugs;
			// the first graduated divergence is the proof, so stop there.
			StopOnDivergence: *campaignPlant,
			Log:              os.Stderr,
		})
		if stats != nil {
			// RunCampaign returns the stats it accumulated alongside a
			// mid-run error; the line is emitted either way.
			fmt.Println(stats)
		}
		if err != nil {
			fail(err)
		}
		if len(stats.Divergences) > 0 {
			for _, d := range stats.Divergences {
				fmt.Fprintln(os.Stderr, "janus-bench:", d.Err)
			}
			flushCache()
			os.Exit(1)
		}
		flushCache()
		return
	}

	if *genCorpus > 0 {
		// Graduation happens before rendering so the figures below
		// include the gen/* rows; a lattice violation (soundness bug)
		// aborts with the failing seed's repro command.
		entries, err := genkern.Graduate(*genCorpus, opts.Threads)
		if err != nil {
			fail(err)
		}
		fmt.Print(genkern.RenderCorpus(entries, *genCorpus))
		fmt.Println()
	}

	out, err := harness.RenderAll(opts, *fig, *table)
	// Partial results: failed experiments are marked inline, healthy
	// ones render normally; print before exiting nonzero.
	fmt.Print(out)
	if opts.Inject != nil || opts.Recovery.ParRecoveries.Load() > 0 {
		fmt.Fprintln(os.Stderr, "janus-bench:", opts.Recovery.Summary())
	}
	flushCache()
	if err != nil {
		fmt.Fprintln(os.Stderr, "janus-bench:", err)
		os.Exit(1)
	}
}
