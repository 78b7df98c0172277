package dbm

import (
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
)

// execKind says how an instruction in a translated block executes.
type execKind uint8

const (
	// execNormal: unmodified guest semantics.
	execNormal execKind = iota
	// execPrivatise: memory operand redirected to a TLS private slot.
	execPrivatise
	// execMainStack: stack read redirected to the main thread's stack.
	execMainStack
	// execBound: exit compare tests the thread's patched bound.
	execBound
)

// titem is one instruction in a translated block: the original
// instruction plus the transformations the rewrite rules attached.
type titem struct {
	addr uint64
	inst guest.Inst
	// pre are the rules whose handlers run before the instruction.
	pre []rules.Rule
	// kind selects the execution transformation.
	kind execKind
	// priv carries MEM_PRIVATISE parameters.
	priv rules.MemPrivatiseData
	// bound carries LOOP_UPDATE_BOUND parameters.
	bound rules.UpdateBoundData
	// loopID of the transforming rule (for kind != execNormal).
	loopID int32
	// touchesMem and writesMem cache inst.ReadsMem()/WritesMem() so the
	// per-instruction dispatch loop never re-derives them.
	touchesMem bool
	writesMem  bool
}

// tblock is one translated basic block in a thread's code cache.
type tblock struct {
	start uint64
	items []titem
	// end is the fall-through address after the block.
	end uint64
	// hasSyscall marks blocks containing a SYSCALL: the host-parallel
	// engine refuses to execute them (syscalls are schedule-ordered),
	// turning any unsoundness in the eligibility scan into a loud
	// error instead of a data race.
	hasSyscall bool
	// scanLoop/scanOK memoise the host-parallel allowlist verdict for
	// this block (static per loop): scanOK is valid while scanLoop
	// matches the active loop, so steady-state dispatch skips the
	// scanned-set map lookup. Blocks are thread-private, so stamping
	// needs no synchronisation.
	scanLoop int32
	scanOK   bool
	// linkPC/linkBlk form a two-entry inline cache mapping this block's
	// observed successor addresses to their translated blocks (the
	// DBM's block linking): a taken/not-taken pair covers a conditional
	// branch, so steady-state dispatch skips the code-cache hash lookup.
	linkPC  [2]uint64
	linkBlk [2]*tblock
}

// maxBlockLen caps translated block length.
const maxBlockLen = 128

// blockFor returns thread t's translated block at addr, translating and
// caching it on a miss (the just-in-time recompilation step of figure
// 1(b)).
func (ex *Executor) blockFor(t *jrt.Thread, addr uint64) (*tblock, error) {
	// Block linking: the previous block's inline cache resolves its
	// common successors without touching the code-cache map.
	prev := ex.lastBlk[t.ID]
	if prev != nil {
		if prev.linkPC[0] == addr && prev.linkBlk[0] != nil {
			return prev.linkBlk[0], nil
		}
		if prev.linkPC[1] == addr && prev.linkBlk[1] != nil {
			return prev.linkBlk[1], nil
		}
	}
	cache := ex.caches[t.ID]
	b, ok := cache[addr]
	if !ok {
		var err error
		b, err = ex.translate(addr)
		if err != nil {
			return nil, err
		}
		cache[addr] = b
		// Translation stats accumulate on the thread (folded into
		// ex.Stats at deterministic points) so host-parallel threads
		// translating concurrently never touch shared counters. The
		// charged set keeps the charge unique per guest thread when a
		// recovery dropped the caches of an already-charged block.
		if !ex.charged[t.ID][addr] {
			ex.charged[t.ID][addr] = true
			if ex.hostParActive {
				// Journal charges made inside a speculative region so a
				// recovery can undo exactly these (lock-free: only the
				// owning thread appends to its own list).
				ex.chargeUndo[t.ID] = append(ex.chargeUndo[t.ID], addr)
			}
			t.TransBlocks++
			t.TransInsts += int64(len(b.items))
			cost := int64(len(b.items)) * ex.Cfg.Cost.TransPerInst
			t.TransCycles += cost
			t.Ctx.Cycles += cost
		}
	}
	if prev != nil {
		if prev.linkBlk[0] == nil {
			prev.linkPC[0], prev.linkBlk[0] = addr, b
		} else {
			prev.linkPC[1], prev.linkBlk[1] = addr, b
		}
	}
	return b, nil
}

// translate decodes one basic block starting at addr and applies the
// rewrite rules found in the schedule hash table (figure 2(b)).
func (ex *Executor) translate(addr uint64) (*tblock, error) {
	b := &tblock{start: addr, scanLoop: -1}
	a := addr
	for len(b.items) < maxBlockLen {
		in, err := ex.M.FetchInst(a)
		if err != nil {
			if len(b.items) > 0 {
				// Lazy decoding: stop at the first undecodable byte;
				// execution never falls through here (e.g. an exit
				// syscall precedes it).
				break
			}
			return nil, err
		}
		it := titem{addr: a, inst: in, writesMem: in.WritesMem()}
		it.touchesMem = it.writesMem || in.ReadsMem()
		if in.Op == guest.SYSCALL {
			b.hasSyscall = true
		}
		for _, r := range ex.Ix.At(a) {
			ex.applyRule(&it, r)
		}
		b.items = append(b.items, it)
		a += guest.InstSize
		if in.Op.IsBlockEnd() {
			break
		}
		// A rule on the next address that begins a region (LOOP_INIT,
		// LOOP_FINISH, profiling) must sit at a block head so its
		// handler runs exactly when control reaches it; end the block
		// early. This mirrors how a DBM splits blocks at instrumented
		// addresses.
		if ex.Ix.Has(a) {
			break
		}
	}
	b.end = a
	return b, nil
}

// applyRule is the rewrite-rule interpreter: each rule ID has a handler
// that transforms the instruction (figure 2(b)'s handler table). Rules
// are applied in schedule order.
func (ex *Executor) applyRule(it *titem, r rules.Rule) {
	switch r.ID {
	case rules.MEM_PRIVATISE:
		if !ex.Cfg.Parallel {
			return
		}
		it.kind = execPrivatise
		it.priv = r.Data.(rules.MemPrivatiseData)
		it.loopID = r.LoopID
	case rules.MEM_MAIN_STACK:
		if !ex.Cfg.Parallel {
			return
		}
		it.kind = execMainStack
		it.loopID = r.LoopID
	case rules.LOOP_UPDATE_BOUND:
		if !ex.Cfg.Parallel {
			return
		}
		it.kind = execBound
		it.bound = r.Data.(rules.UpdateBoundData)
		it.loopID = r.LoopID
	case rules.PROF_LOOP_ITER, rules.PROF_LOOP_FINISH, rules.PROF_MEM_ACCESS,
		rules.PROF_LOOP_START, rules.PROF_EXCALL_START, rules.PROF_EXCALL_FINISH:
		if ex.Cfg.Profile {
			it.pre = append(it.pre, r)
		}
	case rules.MEM_BOUNDS_CHECK, rules.THREAD_SCHEDULE, rules.THREAD_YIELD,
		rules.LOOP_INIT, rules.LOOP_FINISH, rules.TX_START, rules.TX_FINISH:
		if ex.Cfg.Parallel {
			it.pre = append(it.pre, r)
		}
	case rules.MEM_SPILL_REG, rules.MEM_RECOVER_REG:
		if ex.Cfg.Parallel {
			it.pre = append(it.pre, r)
		}
	}
}

// flushCaches models the paper's code-cache flush when a failed runtime
// check forces the original sequential code to be reloaded. Dispatch
// state referencing flushed blocks (the per-thread last block driving
// block linking) is dropped with them.
func (ex *Executor) flushCaches() {
	for i := range ex.caches {
		ex.caches[i] = map[uint64]*tblock{}
		ex.charged[i] = map[uint64]bool{}
		ex.lastBlk[i] = nil
	}
	ex.Stats.CacheFlushes++
}
