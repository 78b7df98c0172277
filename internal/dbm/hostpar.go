package dbm

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
)

// Host-parallel region execution.
//
// The round-robin engine (parallel.go) steps guest threads on one
// goroutine; its fixed schedule is what makes speculative commit order
// and syscall interleaving deterministic. For the loops Janus actually
// parallelises, though, that schedule is pure overhead: the runtime
// bounds checks (and, for static DOALL loops, the static analysis)
// guarantee every word written by one thread is disjoint from every
// word any other thread touches, so the threads cannot observe each
// other and ANY schedule — including truly concurrent execution on
// host goroutines — produces bit-identical per-thread virtual clocks,
// registers and memory.
//
// hostParEligible proves the "cannot observe each other" part for the
// remaining channels a loop body could interact through:
//
//   - SYSCALL: SysWrite appends to the shared output stream and
//     SysAlloc bumps the shared heap frontier; both are ordered by the
//     round-robin schedule, so a body that may reach one must keep
//     that schedule.
//   - TX_START: speculation validates against shared memory and
//     commits in age order; concurrency would reorder commits.
//   - JMPI/CALLI: indirect control flow makes the reachable-code scan
//     unsound, so it conservatively rejects.
//
// The scan walks the static control-flow graph from the loop head,
// pruning at the loop's exit targets (every exit carries a LOOP_FINISH
// rule, and translated blocks always break at rule addresses, so a
// running thread is caught at an exit before executing past it). The
// verdict depends only on the binary and the schedule, never on an
// invocation, so it is cached per loop.

// hostParScanCap bounds the eligibility scan; bodies larger than this
// conservatively use the round-robin engine.
const hostParScanCap = 1 << 15

// hostParEligible returns the scanned body-address set if the loop
// starting at start may run its region on host goroutines under the
// current configuration, or nil if it must use the round-robin engine.
func (ex *Executor) hostParEligible(loopID int32, start uint64) map[uint64]bool {
	if !ex.Cfg.HostParallel || ex.Cfg.Profile || ex.Cfg.Threads <= 1 {
		return nil
	}
	// A loop demoted by a speculation recovery stays on the round-robin
	// engine for the rest of the run (see recover.go); the cached scan
	// verdict below remains valid, it just stops being consulted.
	if ex.demoted(loopID) {
		return nil
	}
	if set, seen := ex.hostParScan[loopID]; seen {
		return set
	}
	set := ex.scanHostParBody(loopID, start)
	ex.hostParScan[loopID] = set
	return set
}

// scanHostParBody walks the statically reachable code of one loop body
// and, if it is free of schedule-dependent effects, returns the set of
// visited addresses (nil otherwise). The set doubles as the runtime
// allowlist: a host-parallel worker refuses any block starting outside
// it, so even control flow the scan cannot see (a redirected return
// address) fails deterministically instead of executing unscanned code
// concurrently.
func (ex *Executor) scanHostParBody(loopID int32, start uint64) map[uint64]bool {
	exits := ex.exitTargets[loopID]
	// site distinguishes code reached at loop level (topLevel: a RET
	// here would pop a frame pushed before the region and escape it)
	// from code reached through a scanned CALL (inCall: its RET
	// returns to a scanned fall-through).
	const (
		topLevel = 1 << iota
		inCall
	)
	type item struct {
		addr uint64
		site uint8
	}
	seen := make(map[uint64]uint8)
	work := []item{{start, topLevel}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[it.addr]&it.site != 0 || exits[it.addr] {
			continue
		}
		if seen[it.addr] == 0 && len(seen) >= hostParScanCap {
			return nil
		}
		seen[it.addr] |= it.site
		for _, r := range ex.Ix.At(it.addr) {
			if r.ID == rules.TX_START {
				return nil
			}
		}
		in, err := ex.M.FetchInst(it.addr)
		if err != nil {
			return nil
		}
		next := item{it.addr + guest.InstSize, it.site}
		switch in.Op {
		case guest.SYSCALL:
			return nil
		case guest.JMPI, guest.CALLI:
			return nil
		case guest.RET:
			if it.site&topLevel != 0 {
				// Returning out of the function containing the loop
				// would leave the region without passing an exit target.
				return nil
			}
			// Path ends: the return address was pushed by a scanned
			// CALL, whose fall-through is already on the worklist.
		case guest.HALT:
			// Path ends.
		case guest.JMP:
			work = append(work, item{uint64(in.Imm), it.site})
		case guest.CALL:
			work = append(work, item{uint64(in.Imm), inCall}, next)
		case guest.JE, guest.JNE, guest.JL, guest.JLE, guest.JG, guest.JGE:
			work = append(work, item{uint64(in.Imm), it.site}, next)
		default:
			work = append(work, next)
		}
	}
	set := make(map[uint64]bool, len(seen))
	for a := range seen {
		set[a] = true
	}
	return set
}

// budgetLease is how many blocks a host-parallel worker draws from the
// region's shared runaway budget at a time. Drawing down a private
// lease keeps the per-block charge off the shared budget word, which
// would otherwise bounce between cores on every block.
const budgetLease = 1024

// regionBudget is a host-parallel region's shared state: the block
// budget not yet leased out, and the flag that cancels the siblings of
// a failing thread. Each sits on its own cache line, so leasing never
// invalidates the failed flag that every worker reads on every block.
type regionBudget struct {
	pool   atomic.Int64
	_      [jrt.CacheLine]byte
	failed atomic.Bool
	_      [jrt.CacheLine]byte
}

// lease draws up to budgetLease blocks from the pool and returns how
// many it got; zero means the region's budget is spent.
func (rb *regionBudget) lease() int64 {
	for {
		n := rb.pool.Load()
		if n <= 0 {
			return 0
		}
		got := min(n, budgetLease)
		if rb.pool.CompareAndSwap(n, n-got) {
			return got
		}
	}
}

// runRegionHostParallel executes the region with one host goroutine per
// guest thread. Eligibility (hostParEligible) guarantees the threads
// share no schedule-ordered state, so each goroutine simply runs its
// thread to its chunk exit. Per-thread code caches, memory views and
// counters keep the hot paths free of locks, and per-thread hot state
// is padded to its own cache line, so a worker's per-block writes
// never invalidate a line another worker reads (see
// TestHostParallelLayout). Results are bit-identical to
// runRegionRoundRobin.
func (ex *Executor) runRegionHostParallel(loopID int32, threads []*jrt.Thread, lc *jrt.LoopCtx, scanned map[uint64]bool) error {
	errs := make([]error, len(threads))
	// One region-wide block budget, the same MaxSteps total the
	// round-robin engine's per-block guard allows. Workers lease it in
	// budgetLease blocks, so a worker finding the pool empty may trip
	// while its siblings still hold unspent leases: a host-parallel
	// region can trip up to (Threads-1)*budgetLease blocks before the
	// round-robin engine would. A trip only sends the region to
	// round-robin recovery (recover.go), which re-runs it under the
	// exact per-block guard, so it never changes a result.
	rb := new(regionBudget)
	rb.pool.Store(ex.Cfg.MaxSteps)
	if ex.inj.Fire(faultinject.BudgetExhaust) {
		// Forced budget exhaustion: every worker trips the runaway
		// backstop on its first block.
		rb.pool.Store(0)
	}
	// rb.failed cancels the siblings of a failing thread: any error
	// sends the whole region to recovery, so their remaining work is
	// wasted. Which threads record an error can depend on host
	// scheduling (a sibling may finish or notice the flag first); the
	// region's success/failure never does, and the round-robin
	// re-execution — not the specific message — is what determines the
	// run's outcome.
	ex.hostParActive = true
	ex.hostParSet = scanned
	defer func() { ex.hostParActive = false; ex.hostParSet = nil }()
	var wg sync.WaitGroup
	for _, th := range threads {
		if th.State == jrt.StateDone {
			continue
		}
		th.State = jrt.StateRunning
		wg.Add(1)
		go func(th *jrt.Thread) {
			defer wg.Done()
			// Contain worker panics: a bug (or injected fault) in one
			// region must fail that region, never the process.
			defer func() {
				if p := recover(); p != nil {
					rb.failed.Store(true)
					errs[th.ID] = panicErr(loopID, th.ID, p, debug.Stack())
				}
			}()
			errs[th.ID] = ex.runThreadToExit(loopID, th, lc, rb)
		}(th)
	}
	wg.Wait()
	// Report the lowest-ID recorded error.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runThreadToExit drives one guest thread from the loop head to its
// chunk exit, charging each block to a private lease on the region's
// runaway budget and abandoning the chunk once a sibling has failed.
// It makes no shared atomic read-modify-write per block: only one per
// lease, and one to refund the unspent lease on exit.
func (ex *Executor) runThreadToExit(loopID int32, th *jrt.Thread, lc *jrt.LoopCtx, rb *regionBudget) error {
	var left int64 // blocks left in this worker's lease
	for {
		if rb.failed.Load() {
			return nil
		}
		if ex.inj.Fire(faultinject.WorkerPanic) {
			panic("faultinject: forced worker panic")
		}
		if ex.inj.Fire(faultinject.Stall) {
			// Forced stall: report the region wedged, as a livelocked
			// worker eventually would.
			rb.failed.Store(true)
			return regionErr(loopID, th.ID, ErrRegionStuck)
		}
		if left == 0 {
			if left = rb.lease(); left == 0 {
				if rb.failed.Load() {
					return nil // a failing sibling will report the region
				}
				rb.failed.Store(true)
				return regionErr(loopID, th.ID, ErrRegionStuck)
			}
		}
		left--
		if err := ex.stepBlock(th); err != nil {
			rb.failed.Store(true)
			return regionErr(loopID, th.ID, err)
		}
		if lc.IsExit(th.Ctx.PC) {
			th.State = jrt.StateDone
			// Hand the unspent lease back to siblings still running.
			rb.pool.Add(left)
			return nil
		}
	}
}
