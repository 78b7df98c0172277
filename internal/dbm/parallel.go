package dbm

import (
	"fmt"
	"runtime/debug"

	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
)

// runParallelLoop is the LOOP_INIT handler on the main thread: it
// evaluates the guarding bounds check, partitions the iteration space,
// spins up the thread pool on the loop, steps the threads round-robin
// to completion, and merges the loop contexts (LOOP_FINISH).
func (ex *Executor) runParallelLoop(mainT *jrt.Thread, r rules.Rule) (*redirect, error) {
	ld := r.Data.(rules.LoopInitData)
	main := mainT.Ctx
	ex.Stats.Invocations++
	entry := func(reg guest.Reg) uint64 { return main.Reg(reg) }

	// Trip count for this invocation.
	n, known := ld.Trip.Count(entry)
	if !known || n <= 0 {
		ex.Stats.SeqFallbacks++
		return nil, nil
	}
	// Profitability floor.
	if n < int64(ex.Cfg.Threads)*ex.Cfg.MinIterPerThread {
		ex.Stats.SeqFallbacks++
		return nil, nil
	}

	// Runtime array-base check (§II-E1): all ranges written must be
	// disjoint from every other range. The applicable rules were indexed
	// at construction time.
	for _, d := range ex.checksAt[checkKey{addr: r.Addr, loopID: r.LoopID}] {
		ex.Stats.ChecksRun++
		main.Cycles += int64(len(d.Ranges)) * ex.Cfg.Cost.CheckPerRange
		ex.Stats.CheckCycles += int64(len(d.Ranges)) * ex.Cfg.Cost.CheckPerRange
		if !boundsCheckPasses(d, entry, n) {
			ex.Stats.ChecksFailed++
			ex.Stats.SeqFallbacks++
			// The loop was already modified in the code caches: flush
			// and reload the original code (the handlers are inert
			// outside parallel mode, so re-translation is enough).
			ex.flushCaches()
			return nil, nil
		}
	}

	ubd, haveBound := ex.boundData[r.LoopID]
	if !haveBound {
		return nil, fmt.Errorf("dbm: loop %d has no LOOP_UPDATE_BOUND rule", r.LoopID)
	}

	// Build the loop context.
	lc := &jrt.LoopCtx{
		LoopID:      r.LoopID,
		Init:        ld,
		Trip:        n,
		MainSP:      main.Reg(guest.SP),
		ExitTargets: ex.exitTargets[r.LoopID],
		ExitPrimary: ex.exitPrimary[r.LoopID],
		BoundValue:  make([]uint64, ex.Cfg.Threads),
		PrivSlots:   map[int32]jrt.PrivSlot{},
	}
	copy(lc.EntryRegs[:], main.GPR[:])
	for slot, pd := range ex.privSlots[r.LoopID] {
		lc.PrivSlots[slot] = jrt.PrivSlot{
			SharedAddr: uint64(pd.SharedAddr.Eval(entry, 0)),
			Size:       pd.Size,
		}
	}
	if len(lc.ExitTargets) == 0 {
		return nil, fmt.Errorf("dbm: loop %d has no exit targets", r.LoopID)
	}

	// Partition and launch.
	chunks := jrt.PartitionChunked(n, ex.Cfg.Threads)
	threads, err := ex.buildRegionThreads(ld, lc, ubd, entry, chunks)
	if err != nil {
		return nil, err
	}

	// Region execution. Both engines produce bit-identical per-thread
	// virtual clocks and memory images; the host-parallel engine is
	// chosen only when the static eligibility scan proves the loop body
	// free of cross-thread interactions the round-robin schedule would
	// otherwise order (see hostpar.go). It runs under an undo log and
	// falls back to round-robin on any failure (see recover.go), so a
	// recovered region renders exactly what a pure round-robin run
	// renders.
	ex.loop = lc
	ex.inParallel = true
	ex.Stats.ParRegions++
	defer func() { ex.loop = nil; ex.inParallel = false }()

	var engineErr error
	if scanned := ex.hostParEligible(r.LoopID, ld.LoopStart); scanned != nil {
		ex.Stats.HostParRegions++
		threads, engineErr = ex.runRegionRecoverable(r, threads, lc, ld, ubd, entry, chunks, scanned)
	} else {
		engineErr = ex.runRegionRoundRobin(r.LoopID, threads, lc)
	}
	// Fold thread-local counters in thread-ID order — a deterministic
	// schedule-independent point, identical for both engines. A failed
	// speculative attempt's threads were dropped unfolded; only the
	// threads that produced the region's result reach this point.
	for _, th := range threads {
		ex.fold(th)
	}
	if engineErr != nil {
		return nil, engineErr
	}

	// Virtual time: the region took as long as its slowest thread, plus
	// init/finish orchestration.
	var maxCycles int64
	for _, th := range threads {
		if th.Ctx.Cycles > maxCycles {
			maxCycles = th.Ctx.Cycles
		}
	}
	initFinish := ex.Cfg.Cost.LoopInitBase + ex.Cfg.Cost.LoopFinishBase +
		int64(ex.Cfg.Threads)*(ex.Cfg.Cost.LoopInitPerThread+ex.Cfg.Cost.LoopFinishPerThread)
	main.Cycles += maxCycles + initFinish
	ex.Stats.ParCycles += maxCycles
	ex.Stats.InitFinishCycles += initFinish
	var totalInsts int64
	for _, th := range threads {
		totalInsts += th.Ctx.Insts
	}
	main.Insts += totalInsts

	// LOOP_FINISH: combine loop contexts from all threads.
	last := lastNonEmpty(threads)
	for _, iv := range ld.Inductions {
		init := iv.Init.Eval(entry, 0)
		main.SetReg(iv.Reg, uint64(init+iv.Step*n))
	}
	finish := ex.finishData[r.LoopID]
	for _, red := range finish.Reductions {
		acc := main.Reg(red.Reg) // initial value flows through main
		for _, th := range threads {
			acc = jrt.MergeReduction(red.Op, acc, th.Ctx.Reg(red.Reg))
		}
		main.SetReg(red.Reg, acc)
	}
	if last != nil {
		for _, lo := range finish.LiveOut {
			main.SetReg(lo, last.Ctx.Reg(lo))
		}
		main.ZF, main.LF = last.Ctx.ZF, last.Ctx.LF
		// Copy privatised cells back to shared memory from the thread
		// that executed the final iteration, one page-span copy at a
		// time.
		for slot, ps := range lc.PrivSlots {
			ex.M.Mem.Copy(ps.SharedAddr, jrt.PrivAddr(last.ID, slot), int(ps.Size))
		}
	}

	// Resume sequential execution at the loop's primary exit target
	// (the smallest LOOP_FINISH address, fixed at construction time so
	// the resume point never depends on map iteration order).
	return &redirect{pc: ex.exitPrimary[r.LoopID]}, nil
}

// runRegionRoundRobin steps the region's threads round-robin at basic-
// block granularity on the calling goroutine. This is the fully general
// engine: the deterministic schedule orders speculative commits (oldest
// thread first) and serialises syscalls, so every loop can run under
// it.
func (ex *Executor) runRegionRoundRobin(loopID int32, threads []*jrt.Thread, lc *jrt.LoopCtx) (err error) {
	// The round-robin engine runs on the orchestrating goroutine, so a
	// panicking handler or guest bug would otherwise unwind the whole
	// process; contain it as a fatal RegionError (this engine is the
	// fallback — there is nothing left to recover to).
	cur := -1
	defer func() {
		if p := recover(); p != nil {
			err = panicErr(loopID, cur, p, debug.Stack())
		}
	}()
	active := 0
	for _, th := range threads {
		if th.State != jrt.StateDone {
			th.State = jrt.StateRunning
			active++
		}
	}
	guard := ex.Cfg.MaxSteps
	for active > 0 {
		oldest := oldestRunning(threads)
		progressed := false
		for _, th := range threads {
			if th.State != jrt.StateRunning {
				continue
			}
			// An aborted speculative thread waits until it is oldest
			// before re-executing non-speculatively.
			if ex.suppressTx[th.ID] && th.ID != oldest {
				continue
			}
			// Per-block guard check, the same boundary the host-parallel
			// engine's shared budget enforces: a runaway region fails
			// after MaxSteps blocks under either engine.
			if guard <= 0 {
				return regionErr(loopID, -1, ErrRegionStuck)
			}
			th.Oldest = th.ID == oldest
			cur = th.ID
			if err := ex.stepBlock(th); err != nil {
				return regionErr(loopID, th.ID, err)
			}
			progressed = true
			guard--
			if lc.IsExit(th.Ctx.PC) {
				th.State = jrt.StateDone
				if ex.tx[th.ID] != nil {
					// A transaction left open across the chunk end:
					// validate/commit now.
					if rd, err := ex.finishTx(th, ex.tx[th.ID]); err != nil {
						return err
					} else if rd != nil {
						th.Ctx.PC = rd.pc
						th.State = jrt.StateRunning
						continue
					}
				}
				active--
			}
		}
		if !progressed {
			return regionErr(loopID, -1, ErrRegionStuck)
		}
	}
	return nil
}

// boundsCheckPasses evaluates the runtime array-base check: every
// written range must be disjoint from every other range.
func boundsCheckPasses(d rules.BoundsCheckData, entry func(guest.Reg) uint64, trip int64) bool {
	type iv struct {
		lo, hi int64
		write  bool
	}
	ivs := make([]iv, len(d.Ranges))
	for i, rg := range d.Ranges {
		lo, hi := rg.Interval(entry, trip)
		ivs[i] = iv{lo: lo, hi: hi, write: rg.Write}
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if !ivs[i].write && !ivs[j].write {
				continue
			}
			if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
				return false
			}
		}
	}
	return true
}

func oldestRunning(threads []*jrt.Thread) int {
	for _, th := range threads {
		if th.State == jrt.StateRunning {
			return th.ID
		}
	}
	return -1
}

func lastNonEmpty(threads []*jrt.Thread) *jrt.Thread {
	for i := len(threads) - 1; i >= 0; i-- {
		if threads[i].Hi > threads[i].Lo {
			return threads[i]
		}
	}
	return nil
}
