package dbm

import (
	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
	"janus/internal/stm"
	"janus/internal/vm"
)

// redirect is returned by handlers that transfer control (a parallel
// region completing, a transaction aborting).
type redirect struct {
	pc uint64
}

// stepBlock translates (or fetches) and executes one basic block for
// thread t.
func (ex *Executor) stepBlock(t *jrt.Thread) error {
	b, err := ex.blockFor(t, t.Ctx.PC)
	if err != nil {
		return err
	}
	if ex.hostParActive {
		// Allowlist check: only a defeated eligibility verdict (e.g. a
		// redirected return address) can fail it — refuse rather than
		// execute unscanned code, or a syscall, on a concurrent worker.
		// The verdict is static per (block, loop), so it is stamped on
		// the thread-private block and steady state pays two compares.
		if ex.inj.Fire(faultinject.ScanDefeat) {
			// Forced scan defeat: behave exactly as if this block fell
			// outside the scanned set.
			return ErrScanEscaped
		}
		if b.scanLoop != ex.loop.LoopID {
			b.scanLoop = ex.loop.LoopID
			b.scanOK = !b.hasSyscall && ex.hostParSet[b.start]
		}
		if !b.scanOK {
			if b.hasSyscall && ex.hostParSet[b.start] {
				return ErrScanSyscall
			}
			return ErrScanEscaped
		}
	}
	ex.lastBlk[t.ID] = b
	t.Ctx.Cycles += ex.Cfg.Cost.Dispatch
	for i := range b.items {
		it := &b.items[i]
		// Rule handlers attached before the instruction.
		for _, r := range it.pre {
			rd, err := ex.runHandler(t, it, r)
			if err != nil {
				return err
			}
			if rd != nil {
				t.Ctx.PC = rd.pc
				return nil
			}
		}
		next, err := ex.execItem(t, it)
		t.Steps++
		if ex.Cfg.Profile {
			ex.Cov.Step(1)
			if ex.Ex.Active() {
				ex.Ex.StepInst()
			}
		}
		if err != nil {
			return err
		}
		if next != it.addr+guest.InstSize {
			t.Ctx.PC = next
			return nil
		}
	}
	t.Ctx.PC = b.end
	return nil
}

// execItem executes one translated instruction with its transformation.
func (ex *Executor) execItem(t *jrt.Thread, it *titem) (uint64, error) {
	c := t.Ctx
	next := it.addr + guest.InstSize
	if it.touchesMem && ex.tx[t.ID] != nil {
		c.Cycles += ex.Cfg.Cost.TxPerAccess
		ex.Stats.SpecInsts++
		if ex.Cfg.Profile && ex.Ex.Active() {
			ex.Ex.RecordMem(it.writesMem)
		}
	}
	switch it.kind {
	case execPrivatise:
		if ex.inParallel && ex.loop != nil && it.loopID == ex.loop.LoopID {
			return ex.execPrivatised(t, it, next)
		}
	case execMainStack:
		if ex.inParallel && ex.loop != nil && it.loopID == ex.loop.LoopID {
			return ex.execMainStackRead(t, it, next)
		}
	case execBound:
		if ex.inParallel && ex.loop != nil && it.loopID == ex.loop.LoopID {
			return ex.execPatchedBound(t, it, next)
		}
	}
	return vm.ExecInst(ex.M, c, &it.inst, next)
}

// execPrivatised redirects the access to the thread's TLS slot
// (MEM_PRIVATISE handler: "re-encoded into a direct memory access to a
// specific private storage location").
func (ex *Executor) execPrivatised(t *jrt.Thread, it *titem, next uint64) (uint64, error) {
	priv := jrt.PrivAddr(t.ID, it.priv.Slot)
	in := it.inst
	in.M = guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1, Disp: int64(priv)}
	return vm.ExecInst(ex.M, t.Ctx, &in, next)
}

// execMainStackRead redirects a read-only stack access to the main
// thread's stack frame (MEM_MAIN_STACK handler). The access' symbolic
// offset from the entry SP equals its current dynamic offset, so the
// address is mainSP + (effaddr - threadSP-at-entry); worker SPs are
// rebased at LOOP_INIT, so the entry SP is simply the worker's SP base.
func (ex *Executor) execMainStackRead(t *jrt.Thread, it *titem, next uint64) (uint64, error) {
	lc := ex.loop
	eff := t.Ctx.EffAddr(it.inst.M)
	var entrySP uint64
	if t.ID == 0 {
		entrySP = lc.MainSP
	} else {
		entrySP = jrt.StackTopFor(t.ID)
	}
	addr := lc.MainSP + (eff - entrySP)
	in := it.inst
	in.M = guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1, Disp: int64(addr)}
	return vm.ExecInst(ex.M, t.Ctx, &in, next)
}

// execPatchedBound executes the exit compare against the thread's
// chunk bound instead of the original loop bound (LOOP_UPDATE_BOUND
// handler; per-thread code caches let every thread see its own bound).
func (ex *Executor) execPatchedBound(t *jrt.Thread, it *titem, next uint64) (uint64, error) {
	lc := ex.loop
	c := t.Ctx
	c.Cycles += it.inst.Op.Cycles()
	c.Insts++
	iv := int64(c.Reg(it.bound.IVReg))
	bound := int64(lc.BoundValue[t.ID])
	c.ZF, c.LF = iv == bound, iv < bound
	return next, nil
}

// runHandler executes one pre-instruction rule handler.
func (ex *Executor) runHandler(t *jrt.Thread, it *titem, r rules.Rule) (*redirect, error) {
	switch r.ID {
	case rules.PROF_LOOP_ITER:
		first := !ex.Cov.IsActive(int(r.LoopID))
		ex.Cov.EnterIter(int(r.LoopID))
		ex.Dep.EnterIter(int(r.LoopID), first)
	case rules.PROF_LOOP_FINISH:
		ex.Cov.Finish(int(r.LoopID))
	case rules.PROF_MEM_ACCESS:
		in := it.inst
		if in.Op.HasMem() {
			ex.Dep.Record(int(r.LoopID), t.Ctx.EffAddr(in.M), in.AccessWidth(), in.WritesMem())
		}
	case rules.PROF_EXCALL_START:
		ex.Ex.Start(r.Addr)
	case rules.PROF_EXCALL_FINISH:
		ex.Ex.Finish()

	case rules.THREAD_SCHEDULE, rules.THREAD_YIELD:
		// Pool transitions are modelled inside the LOOP_INIT/FINISH
		// handlers; the rules themselves cost nothing extra.

	case rules.LOOP_INIT:
		if !ex.inParallel && t.ID == 0 && !ex.seqLatched(r.LoopID) {
			rd, err := ex.runParallelLoop(t, r)
			if err == nil && rd == nil {
				// Sequential fallback: latch so the handler does not
				// re-fire on every header execution of this invocation.
				ex.setSeqLatch(r.LoopID, true)
			}
			return rd, err
		}
	case rules.LOOP_FINISH:
		// Reached sequentially (fallback path): release the latch so
		// the next invocation re-attempts parallelisation.
		if !ex.inParallel {
			ex.setSeqLatch(r.LoopID, false)
		}

	case rules.MEM_BOUNDS_CHECK:
		// Evaluated inside runParallelLoop; standalone occurrence (e.g.
		// sequential fallback path) costs nothing.

	case rules.TX_START:
		if ex.hostParActive {
			// See ErrScanSyscall: speculation needs the round-robin
			// commit order.
			return nil, ErrScanTx
		}
		if ex.inParallel && ex.tx[t.ID] == nil && !ex.suppressTx[t.ID] {
			cp := stm.Checkpoint{GPR: t.Ctx.GPR, ZF: t.Ctx.ZF, LF: t.Ctx.LF, PC: it.addr}
			if spare := ex.txSpare[t.ID]; spare != nil {
				spare.Reset(ex.M.Mem, cp)
				ex.tx[t.ID] = spare
				ex.txSpare[t.ID] = nil
			} else {
				ex.tx[t.ID] = stm.Begin(ex.M.Mem, cp)
			}
			ex.txStartAddr[t.ID] = it.addr
			t.Ctx.Bus = ex.tx[t.ID]
			t.Ctx.Cycles += ex.Cfg.Cost.TxStart
			ex.Stats.TxStarted++
		}
	case rules.TX_FINISH:
		if tx := ex.tx[t.ID]; tx != nil {
			return ex.finishTx(t, tx)
		}
		// Non-speculative re-execution completed.
		ex.suppressTx[t.ID] = false

	case rules.MEM_SPILL_REG, rules.MEM_RECOVER_REG:
		// Register stealing is unnecessary in this DBM: handlers access
		// thread state directly rather than borrowing registers.
	}
	return nil, nil
}

// finishTx validates and commits (or aborts) thread t's transaction
// (TX_FINISH handler, figure 5).
func (ex *Executor) finishTx(t *jrt.Thread, tx *stm.Tx) (*redirect, error) {
	c := t.Ctx
	c.Cycles += int64(tx.ReadSetSize()) * ex.Cfg.Cost.TxValidatePerWord
	ex.Stats.SpecReads += tx.NumReads
	ex.Stats.SpecWrites += tx.NumWrites
	if tx.Validate() {
		c.Cycles += int64(tx.WriteSetSize()) * ex.Cfg.Cost.TxCommitPerWord
		tx.Commit()
		ex.tx[t.ID] = nil
		ex.txSpare[t.ID] = tx
		c.Bus = ex.views[t.ID]
		ex.Stats.TxCommits++
		return nil, nil
	}
	// Abort: roll back to the checkpoint and re-execute. The retry runs
	// non-speculatively, which is safe because the scheduler only steps
	// an aborted thread once it is the oldest (see parallel.go).
	cp := tx.Checkpoint()
	c.GPR = cp.GPR
	c.ZF, c.LF = cp.ZF, cp.LF
	ex.tx[t.ID] = nil
	ex.txSpare[t.ID] = tx
	c.Bus = ex.views[t.ID]
	ex.suppressTx[t.ID] = true
	t.Oldest = false // cleared; scheduler recomputes
	ex.Stats.TxAborts++
	return &redirect{pc: cp.PC}, nil
}
