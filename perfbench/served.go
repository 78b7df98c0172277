package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/harness"
	"janus/internal/janusd"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// served is the daemon's steady state: an in-process janusd on a
// loopback listener, its artifact cache written by one cold render in
// set-up, then a client asking for figure 7 over plain HTTP. Every
// native, profile and DBM result is then a memo hit or a verified disk
// hit, so the time goes to cache reads and decoding, repeated
// analysis, schedule hashing, harness scheduling and HTTP.
type served struct {
	dir    string
	cache  *artcache.Cache
	srv    *janusd.Server
	done   chan error // Serve's return
	url    string
	client *http.Client
	base   artcache.Stats // counters after set-up

	// Traced runs only: requests since set-up, and the round-trip and
	// server times of the untraced ones.
	traced    bool
	requests  int
	rtt, srvT []time.Duration
	stopQueue func() int
}

// renderBody asks for figure 7 alone. janusd.Client is not used: it
// retries refusals, which must count as failures here.
const renderBody = `{"fig":7}`

func setupServed(_ uint64, traced bool) (instance, error) {
	// Nothing may be warm from an earlier set-up of this process.
	janus.ResetMemos()
	workloads.ResetBuildCache()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "artcache-")
	if err != nil {
		return nil, err
	}
	cache, err := artcache.OpenShared(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		dir:    dir,
		cache:  cache,
		srv:    janusd.New(janusd.Config{CacheDir: dir}),
		done:   make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/render",
		client: &http.Client{},
		traced: traced,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	body, _, err := s.post()
	if err == nil {
		err = checkRender(fig7Golden, body)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("cold render: %w", err), s.close())
	}
	s.base = cache.Stats()
	if traced {
		s.stopQueue = s.sampleQueue()
	}
	return s, nil
}

// post renders figure 7 over HTTP. It returns the body and the
// server's own elapsed time; a refusal is an error like any status but
// 200.
func (s *served) post() (body string, server time.Duration, err error) {
	resp, err := s.client.Post(s.url, "application/json", strings.NewReader(renderBody))
	if err != nil {
		return "", 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	elapsed, err := strconv.ParseInt(resp.Header.Get("X-Janus-Elapsed-Ms"), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("elapsed header: %w", err)
	}
	return string(b), time.Duration(elapsed) * time.Millisecond, nil
}

func (s *served) op() (cost, error) {
	var (
		body   string
		server time.Duration
	)
	c, err := measure(func() (err error) {
		body, server, err = s.post()
		return err
	})
	if err != nil {
		return c, err
	}
	if s.traced {
		s.requests++
		s.rtt = append(s.rtt, c.wall)
		s.srvT = append(s.srvT, server)
	}
	return c, checkRender(fig7Golden, body)
}

// tracedOp spans the request as janusd and, inside it, the server's
// reported elapsed time as harness.
func (s *served) tracedOp(tr *tracer) (cost, error) {
	c0 := cpuTime()
	op := tr.startOp()
	req := tr.begin(op, "request", "janusd")
	body, server, err := s.post()
	end := time.Now()
	tr.end(req)
	if err == nil {
		tr.add(req, "server", "harness", end.Add(-server), end)
	}
	c := cost{wall: tr.end(op), cpu: cpuTime() - c0}
	s.requests++
	if err != nil {
		return c, err
	}
	return c, checkRender(fig7Golden, body)
}

// sampleQueue polls the daemon's queue length every 2 ms until the
// returned function is called, which returns the largest length seen.
func (s *served) sampleQueue() func() int {
	hi := 0
	stop := poll(2*time.Millisecond, func() { hi = max(hi, s.srv.Snapshot().Queued) })
	return func() int {
		stop()
		return hi
	}
}

// inProcessRenders is how many times layers renders figure 7 through
// the harness directly.
const inProcessRenders = 3

func (s *served) layers(m metrics, tr *tracer, _ int) error {
	m.set("janusd.queued_max", float64(s.stopQueue()))
	s.stopQueue = nil
	m.set("janusd.shed", float64(s.srv.Snapshot().Shed))
	cs := s.cache.Stats()
	n := float64(max(s.requests, 1))
	hits, misses := float64(cs.Hits-s.base.Hits), float64(cs.Misses-s.base.Misses)
	m.set("artcache.hits_per_op", hits/n)
	m.set("artcache.misses_per_op", misses/n)
	m.set("artcache.bad_per_op", float64(cs.BadEntries-s.base.BadEntries)/n)
	if hits+misses > 0 {
		m.set("artcache.hit_ratio", hits/(hits+misses))
	}
	var overhead []time.Duration
	for i := range s.rtt {
		overhead = append(overhead, s.rtt[i]-s.srvT[i])
	}
	m.set("janusd.rtt_ms_p50", ms(percentile(s.rtt, 0.5)))
	m.set("janusd.server_ms_p50", ms(percentile(s.srvT, 0.5)))
	m.set("janusd.overhead_ms_p50", ms(percentile(overhead, 0.5)))

	// The harness alone, on the same cache, one render at a time.
	var rows []time.Duration
	var nrows int
	for i := 0; i < inProcessRenders; i++ {
		var mu sync.Mutex
		last := time.Now()
		o := harness.DefaultOptions()
		o.CacheDir = s.dir
		o.OnProgress = func(ev harness.ProgressEvent) {
			if ev.State != "row" {
				return
			}
			mu.Lock()
			now := time.Now()
			rows = append(rows, now.Sub(last))
			last = now
			nrows++
			mu.Unlock()
		}
		id := tr.root("harness.render", "harness")
		out, err := harness.RenderAll(o, 7, 0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("in-process render: %w", err)
		}
		if err := checkRender(fig7Golden, out); err != nil {
			return fmt.Errorf("in-process render: %w", err)
		}
	}
	m.set("harness.render_ms", ms(tr.total("harness.render"))/inProcessRenders)
	m.set("harness.rows_per_op", float64(nrows)/inProcessRenders)
	m.set("harness.row_ms_p50", ms(percentile(rows, 0.5)))
	m.set("harness.row_ms_max", ms(percentile(rows, 1)))
	return s.replay(m, tr)
}

// replay repeats, outside the daemon, the analysis work one figure-7
// render does on a warm cache: for each benchmark and each of the three
// parallelised configurations, analyse the ref binary, apply the train
// profile, select loops, generate the schedule and hash its saved form
// (the cache key of the DBM result). It gives the analyzer and rules
// metrics of this workload; printed next to the server time, it tells
// how much of a request they account for.
func (s *served) replay(m metrics, tr *tracer) error {
	configs := []analyzer.SelectOptions{
		{MinCoverage: analyzer.DefaultMinCoverage},
		{UseProfile: true, MinCoverage: analyzer.DefaultMinCoverage},
		{UseProfile: true, UseChecks: true, MinCoverage: analyzer.DefaultMinCoverage},
	}
	var loops, sel, bytes int
	for _, name := range workloads.ParallelisableNames() {
		exe, libs, err := workloads.BuildCached(s.cache, name, workloads.Ref, workloads.O3)
		if err != nil {
			return err
		}
		train, _, err := workloads.BuildCached(s.cache, name, workloads.Train, workloads.O3)
		if err != nil {
			return err
		}
		trainProg, err := analyzer.Analyze(train)
		if err != nil {
			return err
		}
		prof, err := janus.RunProfilingCached(s.cache, train, trainProg, libs...)
		if err != nil {
			return err
		}
		for _, opts := range configs {
			var (
				prog  *analyzer.Program
				sched *rules.Schedule
				img   []byte
			)
			root := tr.root("replay", "replay")
			err := tr.steps(root, []step{
				{"replay.analyze", "analyzer", func() (err error) { prog, err = analyzer.Analyze(exe); return }},
				{"replay.select", "analyzer", func() error {
					if opts.UseProfile {
						prog.ApplyCoverage(prof.Coverage)
						prog.ApplyExclCoverage(prof.ExclCoverage)
						prog.ApplyAvgIters(prof.AvgIters)
						prog.ApplyDependences(prof.Dependences)
					}
					prog.SelectLoops(opts)
					return nil
				}},
				{"replay.gen", "rules", func() (err error) { sched, err = prog.GenParallelSchedule(); return }},
				{"replay.save", "rules", func() (err error) {
					img, err = sched.Save()
					sha256.Sum256(img) // as the DBM result's cache key does
					return
				}},
			})
			tr.end(root)
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			loops += len(prog.Loops)
			sel += len(outcomeOf(prog).Selected)
			bytes += len(img)
		}
	}
	m.set("analyzer.analyze_ms", ms(tr.total("replay.analyze")))
	m.set("analyzer.select_ms", ms(tr.total("replay.select")))
	m.set("analyzer.loops", float64(loops))
	m.set("analyzer.loops_selected", float64(sel))
	m.set("rules.gen_ms", ms(tr.total("replay.gen")))
	m.set("rules.save_ms", ms(tr.total("replay.save")))
	m.set("rules.schedule_bytes", float64(bytes))
	server := ms(percentile(s.srvT, 0.5))
	fmt.Printf("replayed analysis work of one render, as shares of the server's p50 time (%.1f ms):\n", server)
	for _, l := range []struct{ name, span string }{
		{"analyzer", "replay.analyze"}, {"analyzer", "replay.select"}, {"rules", "replay.gen"}, {"rules", "replay.save"},
	} {
		d := ms(tr.total(l.span))
		fmt.Printf("  %-9s %-15s %6.1f%%  %10.3f ms\n", l.name, l.span, 100*d/server, d)
	}
	return nil
}

func (s *served) close() error {
	if s.stopQueue != nil {
		s.stopQueue()
	}
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}
