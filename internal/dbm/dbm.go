// Package dbm is the Janus dynamic binary modifier: the DynamoRIO-like
// layer that translates basic blocks just-in-time into per-thread code
// caches, consults the rewrite-schedule hash table before caching, and
// invokes the rule handlers that transform the code (figure 2(b)).
//
// Execution is deterministic and the elapsed time of a parallel region
// is always the maximum thread virtual-cycle clock plus orchestration
// overheads (see ARCHITECTURE.md). Two region engines produce that
// result:
//
//   - round-robin: guest threads stepped at basic-block granularity on
//     one goroutine. Fully general — the fixed schedule orders
//     speculative commits and syscalls.
//   - host-parallel (the default for scan-eligible loops): one host
//     goroutine per guest thread, each running its static equal chunk
//     (jrt.PartitionChunked), used when a static scan of the loop body
//     proves the threads cannot observe each other (see hostpar.go).
//     Per-thread code caches, memory views and counters keep the hot
//     paths lock-free.
//
// Simulated results — virtual cycles, figures, data hashes and the
// full-image MemHash — are bit-identical between the engines and
// independent of GOMAXPROCS; only host wall-clock differs.
package dbm

import (
	"fmt"

	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/obj"
	"janus/internal/profiler"
	"janus/internal/rules"
	"janus/internal/stm"
	"janus/internal/vm"
)

// CostModel holds the virtual-cycle charges for DBM machinery. The
// defaults are tuned so the relative overheads match the paper's
// observations (≈6% average slowdown under the bare modifier, checks
// costing a few percent, speculation expensive per access).
type CostModel struct {
	// TransPerInst is charged once per instruction translated into a
	// code cache.
	TransPerInst int64
	// Dispatch is charged per basic-block entry (cache lookup + link).
	Dispatch int64
	// LoopInitBase/PerThread model LOOP_INIT (starting all threads).
	LoopInitBase      int64
	LoopInitPerThread int64
	// LoopFinishBase/PerThread model LOOP_FINISH (joining threads).
	LoopFinishBase      int64
	LoopFinishPerThread int64
	// CheckPerRange is charged per range pair in MEM_BOUNDS_CHECK.
	CheckPerRange int64
	// TxStart / TxPerAccess / TxValidatePerWord / TxCommitPerWord model
	// the software-transaction overheads.
	TxStart           int64
	TxPerAccess       int64
	TxValidatePerWord int64
	TxCommitPerWord   int64
}

// DefaultCost is the standard cost model.
func DefaultCost() CostModel {
	return CostModel{
		TransPerInst:        60,
		Dispatch:            1,
		LoopInitBase:        4000,
		LoopInitPerThread:   900,
		LoopFinishBase:      2000,
		LoopFinishPerThread: 400,
		CheckPerRange:       60,
		TxStart:             60,
		TxPerAccess:         6,
		TxValidatePerWord:   12,
		TxCommitPerWord:     8,
	}
}

// Config controls one DBM execution.
type Config struct {
	// Threads is the parallel thread count (>=1).
	Threads int
	// Parallel enables the parallelisation rule handlers.
	Parallel bool
	// Profile enables the profiling rule handlers.
	Profile bool
	// HostParallel runs eligible parallel regions on real host
	// goroutines (one per guest thread) instead of stepping guest
	// threads round-robin on one goroutine. Virtual-cycle results are
	// bit-identical either way — eligibility is established by a static
	// scan of the loop body (see hostpar.go) — so this trades nothing
	// but host wall-clock. Regions the scan cannot prove safe
	// (syscalls, indirect control flow, speculation) fall back to the
	// round-robin engine.
	HostParallel bool
	// MinIterPerThread is the profitability floor: loops with fewer
	// iterations per thread run sequentially.
	MinIterPerThread int64
	// MaxSteps bounds total executed instructions.
	MaxSteps int64
	// Cost is the virtual-cycle cost model.
	Cost CostModel
	// Inject, when non-nil, arms deterministic fault injection inside
	// speculative regions (see internal/faultinject); nil costs
	// nothing.
	Inject *faultinject.Plan
}

// DefaultConfig returns a ready-to-use configuration.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:          threads,
		Parallel:         true,
		HostParallel:     true,
		MinIterPerThread: 4,
		MaxSteps:         vm.DefaultMaxSteps,
		Cost:             DefaultCost(),
	}
}

// Stats aggregates DBM counters for the evaluation figures.
type Stats struct {
	// Translation.
	TransBlocks int64
	TransInsts  int64
	TransCycles int64
	// Time breakdown (virtual cycles).
	ParCycles        int64
	InitFinishCycles int64
	CheckCycles      int64
	// Parallelisation events.
	Invocations int64
	ParRegions  int64
	// HostParRegions counts the regions that ran on host goroutines
	// (the remainder of ParRegions used the round-robin engine).
	HostParRegions int64
	// StealRegions is always zero: the work-stealing partitioner it
	// counted is gone. It stays only because the perfbench module reads
	// it for its dbm.steal_regions metric; both go together when that
	// benchmark next changes.
	StealRegions int64
	SeqFallbacks int64
	CacheFlushes int64
	// ParRecoveries counts speculative regions that failed, rolled back
	// and re-executed round-robin; DemotedLoops counts the distinct
	// loops latched onto the round-robin engine by those recoveries.
	// Both are folded on the orchestrating goroutine only, so they are
	// deterministic for a given injection plan.
	ParRecoveries int64
	DemotedLoops  int64
	// Runtime checks.
	ChecksRun    int64
	ChecksFailed int64
	// Speculation.
	TxStarted  int64
	TxCommits  int64
	TxAborts   int64
	SpecReads  int64
	SpecWrites int64
	SpecInsts  int64
}

// checkKey locates the MEM_BOUNDS_CHECK rules guarding one loop at one
// LOOP_INIT site.
type checkKey struct {
	addr   uint64
	loopID int32
}

// Executor runs one program under the DBM.
type Executor struct {
	M     *vm.Machine
	Sched *rules.Schedule
	Ix    *rules.Index
	Cfg   Config

	Stats Stats

	// caches[t] is thread t's private code cache.
	caches []map[uint64]*tblock
	// charged[t] records the blocks whose translation cost has been
	// charged to guest thread t. It mirrors caches[t] (a block is
	// charged exactly when it is first translated) except after a
	// speculation recovery, which drops the code caches but keeps the
	// charges that stand, so re-translating a charged block is free
	// (see recover.go).
	charged []map[uint64]bool
	// lastBlk[t] is the block thread t executed last, the anchor for
	// block linking in blockFor. Entries are only ever touched by the
	// owning thread, so host-parallel threads never contend.
	lastBlk []*tblock

	// views[t] is thread t's private memory view (software TLB +
	// last-leaf cache) over the shared machine memory.
	views []*vm.MemView

	// hostParScan caches the per-loop host-parallel eligibility verdict
	// (the loop body is static, so one scan per loop suffices): the set
	// of statically reachable body addresses for an eligible loop, nil
	// for an ineligible one.
	hostParScan map[int32]map[uint64]bool

	// main is the program's main context.
	main *vm.Context

	// loop is the active parallel-region state (nil outside regions).
	loop       *jrt.LoopCtx
	inParallel bool
	// hostParActive is set while region threads run on host goroutines,
	// and hostParSet then holds the active loop's scanned address set.
	// Written only by the main thread before spawning and after joining
	// the workers; workers read them to refuse any block the
	// eligibility scan did not see (plus schedule-ordered work:
	// syscalls, transactions) — work that only a defeated static scan
	// could reach — failing loudly instead of racing.
	hostParActive bool
	hostParSet    map[uint64]bool

	// Per-loop metadata precomputed from the schedule.
	exitTargets map[int32]map[uint64]bool
	boundData   map[int32]rules.UpdateBoundData
	privSlots   map[int32]map[int32]rules.MemPrivatiseData
	// exitPrimary is the loop's deterministic resume address: the
	// smallest LOOP_FINISH target.
	exitPrimary map[int32]uint64
	// finishData is the first LOOP_FINISH payload per loop, in schedule
	// order.
	finishData map[int32]rules.LoopFinishData
	// checksAt indexes MEM_BOUNDS_CHECK payloads by (rule address,
	// loop), replacing the per-invocation scan over the address index.
	checksAt map[checkKey][]rules.BoundsCheckData

	// Profiling state.
	Cov *profiler.Coverage
	Dep *profiler.Dependence
	Ex  *profiler.Excall

	// seqLoop marks loops currently running sequentially (fallback), so
	// LOOP_INIT does not re-fire on every header execution. Indexed by
	// loop ID (dense small ints from the analyzer).
	seqLoop []bool
	// demotedLoop latches loops onto the round-robin engine after a
	// speculation recovery (see recover.go). Same indexing as seqLoop.
	demotedLoop []bool

	// inj is the armed fault injector (nil unless Config.Inject is
	// set; nil-safe everywhere it is consulted).
	inj *faultinject.Injector
	// chargeUndo[t] journals the block addresses first charged to guest
	// thread t inside the active speculative region, so a recovery can
	// undo exactly those charges. Appended lock-free by the owning
	// thread; drained on the orchestrating goroutine.
	chargeUndo [][]uint64

	// Per-thread transaction state (index = thread ID). txSpare keeps a
	// finished transaction per thread for buffer reuse.
	tx          []*stm.Tx
	txSpare     []*stm.Tx
	suppressTx  []bool
	txStartAddr []uint64

	steps int64
}

// New creates an executor for exe+libs under schedule s (which may be
// nil for a bare "DynamoRIO only" run).
func New(exe *obj.Executable, s *rules.Schedule, cfg Config, libs ...*obj.Library) (*Executor, error) {
	m, err := vm.NewMachine(exe, libs...)
	if err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = vm.DefaultMaxSteps
	}
	if s == nil {
		s = &rules.Schedule{ExeName: exe.Name}
	}
	ex := &Executor{
		M:           m,
		Sched:       s,
		Ix:          rules.BuildIndex(s),
		Cfg:         cfg,
		caches:      make([]map[uint64]*tblock, cfg.Threads),
		charged:     make([]map[uint64]bool, cfg.Threads),
		lastBlk:     make([]*tblock, cfg.Threads),
		views:       make([]*vm.MemView, cfg.Threads),
		hostParScan: map[int32]map[uint64]bool{},
		exitTargets: map[int32]map[uint64]bool{},
		boundData:   map[int32]rules.UpdateBoundData{},
		privSlots:   map[int32]map[int32]rules.MemPrivatiseData{},
		exitPrimary: map[int32]uint64{},
		finishData:  map[int32]rules.LoopFinishData{},
		checksAt:    map[checkKey][]rules.BoundsCheckData{},
		Cov:         profiler.NewCoverage(),
		Dep:         profiler.NewDependence(),
		Ex:          profiler.NewExcall(),
		tx:          make([]*stm.Tx, cfg.Threads),
		txSpare:     make([]*stm.Tx, cfg.Threads),
		suppressTx:  make([]bool, cfg.Threads),
		txStartAddr: make([]uint64, cfg.Threads),
		inj:         faultinject.NewInjector(cfg.Inject),
		chargeUndo:  make([][]uint64, cfg.Threads),
	}
	for i := range ex.caches {
		ex.caches[i] = map[uint64]*tblock{}
		ex.charged[i] = map[uint64]bool{}
		ex.views[i] = m.Mem.NewView()
	}
	for _, r := range s.Rules {
		switch r.ID {
		case rules.LOOP_FINISH:
			set := ex.exitTargets[r.LoopID]
			if set == nil {
				set = map[uint64]bool{}
				ex.exitTargets[r.LoopID] = set
			}
			set[r.Addr] = true
			if prev, ok := ex.exitPrimary[r.LoopID]; !ok || r.Addr < prev {
				ex.exitPrimary[r.LoopID] = r.Addr
			}
			if _, ok := ex.finishData[r.LoopID]; !ok {
				ex.finishData[r.LoopID] = r.Data.(rules.LoopFinishData)
			}
		case rules.LOOP_UPDATE_BOUND:
			ex.boundData[r.LoopID] = r.Data.(rules.UpdateBoundData)
		case rules.MEM_PRIVATISE:
			m := ex.privSlots[r.LoopID]
			if m == nil {
				m = map[int32]rules.MemPrivatiseData{}
				ex.privSlots[r.LoopID] = m
			}
			d := r.Data.(rules.MemPrivatiseData)
			m[d.Slot] = d
		case rules.MEM_BOUNDS_CHECK:
			k := checkKey{addr: r.Addr, loopID: r.LoopID}
			ex.checksAt[k] = append(ex.checksAt[k], r.Data.(rules.BoundsCheckData))
		}
	}
	ex.main = m.NewContext(0, obj.DefaultStackTop)
	ex.main.GPR[guest.RegTLS] = jrt.TLSFor(0)
	return ex, nil
}

// Result is the outcome of a DBM execution.
type Result struct {
	vm.Result
	Stats Stats
}

// fold drains thread t's locally accumulated counters into the
// executor's global step budget and stats. Threads accumulate locally
// so host-parallel execution never races on shared counters; folding
// happens at deterministic points (after each sequential block, and in
// thread-ID order when a parallel region joins), so the folded totals
// are identical whichever engine ran the region.
func (ex *Executor) fold(t *jrt.Thread) {
	ex.steps += t.Steps
	ex.Stats.TransBlocks += t.TransBlocks
	ex.Stats.TransInsts += t.TransInsts
	ex.Stats.TransCycles += t.TransCycles
	t.Steps, t.TransBlocks, t.TransInsts, t.TransCycles = 0, 0, 0, 0
}

// Run executes the program to completion under the DBM.
func (ex *Executor) Run() (*Result, error) {
	t := &jrt.Thread{ID: 0, Ctx: ex.main}
	for !ex.main.Halted {
		if ex.steps >= ex.Cfg.MaxSteps {
			return nil, fmt.Errorf("dbm: exceeded %d steps: %w", ex.Cfg.MaxSteps, ErrStepBudget)
		}
		err := ex.stepBlock(t)
		ex.fold(t)
		if err != nil {
			if err == vm.ErrExited {
				break
			}
			return nil, err
		}
	}
	return &Result{
		Result: vm.Result{
			Exit:     ex.main.Exit,
			Output:   ex.M.Output,
			Cycles:   ex.main.Cycles,
			Insts:    ex.main.Insts,
			MemHash:  ex.M.Mem.Hash(),
			DataHash: ex.M.Mem.HashBelow(vm.DataHashLimit),
		},
		Stats: ex.Stats,
	}, nil
}

// DataHash hashes memory below the runtime-private regions, for
// correctness comparison against native runs (worker stacks and TLS
// would otherwise differ).
func (ex *Executor) DataHash() uint64 {
	return ex.M.Mem.HashBelow(vm.DataHashLimit)
}

// seqLatched reports whether a loop is latched into sequential
// fallback for the current invocation.
func (ex *Executor) seqLatched(loopID int32) bool {
	return int(loopID) < len(ex.seqLoop) && ex.seqLoop[loopID]
}

// setSeqLatch sets or clears the sequential-fallback latch.
func (ex *Executor) setSeqLatch(loopID int32, v bool) {
	if int(loopID) >= len(ex.seqLoop) {
		if !v {
			return
		}
		grown := make([]bool, loopID+1, 2*(loopID+1))
		copy(grown, ex.seqLoop)
		ex.seqLoop = grown
	}
	ex.seqLoop[loopID] = v
}
