package dbm

import (
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Region-level speculation recovery.
//
// The host-parallel engine (hostpar.go) runs a region concurrently
// only after the eligibility scan proves the threads cannot observe
// each other — but the backstops that enforce that proof at runtime
// (the allowlist, the shared step budget, panic containment) can
// still trip. Rather than abort the run, the region is executed under
// an undo log and re-executed deterministically:
//
//	snapshot memory (vm.Checkpoint, copy-on-first-write)
//	arm the fault injector, journal translation charges
//	run the host-parallel engine
//	on success: discard the snapshot and the journal
//	on ANY failure: restore memory, undo the journaled charges,
//	  drop the region caches, rebuild the guest threads, demote the
//	  loop to the round-robin engine for the rest of the run, and
//	  re-execute the region round-robin
//
// The round-robin re-execution is the arbiter: a transient failure
// (injected fault, defeated scan, exhausted budget, worker panic)
// re-executes cleanly and the run renders byte-identical output to a
// pure round-robin run; a genuine guest fault (divide by zero, bad
// fetch) reproduces deterministically and fails the run with
// round-robin's error.
//
// Why the rollback is complete — the contamination channels of a
// failed speculative attempt, and how each is undone:
//
//   - Guest memory: restored exactly by the checkpoint.
//   - Thread contexts (registers, cycles, BoundValue): the attempt's
//     jrt.Threads are dropped unfolded and rebuilt from the loop-entry
//     snapshot, so no counter or register from the failed attempt
//     survives.
//   - Translation charges: blockFor journals every
//     (thread, block) pair first charged inside the region; rollback
//     deletes exactly those entries, so the re-execution re-charges
//     them just as a from-scratch round-robin run would.
//   - Code caches: cleared wholesale (selective eviction is unsound —
//     sibling blocks' inline link caches bypass the cache map).
//     Harmless to virtual time: re-translating an already-charged
//     block adds zero cycles, and the charged sets are preserved.
//   - Executor stats, profilers, transactions, output: unreachable
//     from inside a host-parallel region by construction (profilers
//     are ineligible, syscalls/TX trip the allowlist before running).

// runRegionRecoverable executes an eligible region on the host-parallel
// engine with full undo, falling back to the round-robin engine on any
// failure. It returns the threads that actually produced the region's
// result (the rebuilt set when recovery ran).
func (ex *Executor) runRegionRecoverable(r rules.Rule, threads []*jrt.Thread, lc *jrt.LoopCtx, ld rules.LoopInitData, ubd rules.UpdateBoundData, entry func(guest.Reg) uint64, chunks []jrt.Chunk, scanned map[uint64]bool) ([]*jrt.Thread, error) {
	cp := ex.M.Mem.Snapshot()
	ex.inj.Arm()
	if err := ex.runRegionHostParallel(r.LoopID, threads, lc, scanned); err == nil {
		cp.Discard()
		ex.commitCharges()
		return threads, nil
	}

	// Recover: undo every effect of the failed attempt, then re-execute
	// deterministically.
	cp.Restore()
	ex.rollbackCharges()
	ex.clearRegionCaches()
	ex.Stats.ParRecoveries++
	ex.demote(r.LoopID)
	rebuilt, err := ex.buildRegionThreads(ld, lc, ubd, entry, chunks)
	if err != nil {
		return threads, err
	}
	return rebuilt, ex.runRegionRoundRobin(r.LoopID, rebuilt, lc)
}

// buildRegionThreads constructs the region's guest threads from the
// loop-entry register snapshot: per-thread contexts with induction
// variables set to chunk bases, reductions at identity, rebased worker
// stacks, and the per-thread patched bounds written into lc.BoundValue.
// Recovery calls it a second time to rebuild untainted threads.
func (ex *Executor) buildRegionThreads(ld rules.LoopInitData, lc *jrt.LoopCtx, ubd rules.UpdateBoundData, entry func(guest.Reg) uint64, chunks []jrt.Chunk) ([]*jrt.Thread, error) {
	threads := make([]*jrt.Thread, ex.Cfg.Threads)
	for i := 0; i < ex.Cfg.Threads; i++ {
		ctx := &vm.Context{ID: i, Bus: ex.views[i]}
		ctx.GPR = lc.EntryRegs
		ctx.GPR[guest.RegTLS] = jrt.TLSFor(i)
		if i != 0 {
			ctx.SetReg(guest.SP, jrt.StackTopFor(i))
		}
		for _, iv := range ld.Inductions {
			init := iv.Init.Eval(entry, 0)
			ctx.SetReg(iv.Reg, uint64(init+iv.Step*chunks[i].Lo))
		}
		for _, red := range ld.Reductions {
			ctx.SetReg(red.Reg, jrt.ReductionIdentity(red.Op))
		}
		bv, err := jrt.PatchedBound(ubd, entry, chunks[i].Hi)
		if err != nil {
			return nil, err
		}
		lc.BoundValue[i] = bv
		ctx.PC = ld.LoopStart
		th := &jrt.Thread{ID: i, Ctx: ctx, Lo: chunks[i].Lo, Hi: chunks[i].Hi, State: jrt.StateScheduled}
		if chunks[i].Lo >= chunks[i].Hi {
			th.State = jrt.StateDone
		}
		threads[i] = th
	}
	return threads, nil
}

// commitCharges drops the charge journal after a successful speculative
// region: the charges stand.
func (ex *Executor) commitCharges() {
	for i := range ex.chargeUndo {
		ex.chargeUndo[i] = ex.chargeUndo[i][:0]
	}
}

// rollbackCharges removes every (thread, block) translation charge
// first recorded inside the failed region, so re-execution re-charges
// them exactly as an untainted run would.
func (ex *Executor) rollbackCharges() {
	for t := range ex.chargeUndo {
		for _, addr := range ex.chargeUndo[t] {
			delete(ex.charged[t], addr)
		}
		ex.chargeUndo[t] = ex.chargeUndo[t][:0]
	}
}

// clearRegionCaches drops every code cache and dispatch anchor without
// touching the charged sets or the CacheFlushes counter: this is
// rollback bookkeeping, not the paper's modelled cache flush, and it
// must not perturb virtual time (re-translating a charged block is
// free).
func (ex *Executor) clearRegionCaches() {
	for i := range ex.caches {
		ex.caches[i] = map[uint64]*tblock{}
		ex.lastBlk[i] = nil
	}
}

// demoted reports whether a loop is latched onto the round-robin
// engine for the rest of the run.
func (ex *Executor) demoted(loopID int32) bool {
	return int(loopID) < len(ex.demotedLoop) && ex.demotedLoop[loopID]
}

// demote latches a loop onto the round-robin engine after a recovery,
// following the seqLoop grow pattern. Unlike the sequential-fallback
// latch this one is never released: the speculative attempt already
// failed once on this loop, and re-speculating would re-pay the
// checkpoint and re-risk the fault every invocation.
func (ex *Executor) demote(loopID int32) {
	if ex.demoted(loopID) {
		return
	}
	if int(loopID) >= len(ex.demotedLoop) {
		grown := make([]bool, loopID+1, 2*(loopID+1))
		copy(grown, ex.demotedLoop)
		ex.demotedLoop = grown
	}
	ex.demotedLoop[loopID] = true
	ex.Stats.DemotedLoops++
}
