// Package jrt is the Janus runtime: the thread pool, per-thread loop
// contexts and private resources (stack, TLS, private storage slots),
// iteration-space partitioning for the chunked and round-robin
// scheduling policies, and reduction identity/merge arithmetic.
//
// The paper's runtime keeps a pool of OS threads that wait for
// THREAD_SCHEDULE and return on THREAD_YIELD. Here threads are
// deterministic simulated contexts driven by the DBM executor — either
// stepped round-robin on one goroutine or, for loops whose bodies are
// provably free of cross-thread interaction, run concurrently on real
// host goroutines; the pool states and scheduling policies are
// modelled faithfully and results are reproducible under both engines
// (see ARCHITECTURE.md for the substitution rationale).
package jrt

import (
	"fmt"
	"math"

	"janus/internal/guest"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Private resource layout: each thread t gets a stack and a TLS block
// at fixed, disjoint addresses well away from program data.
const (
	// WorkerStackBase is the top of thread 1's private stack; thread t
	// uses WorkerStackBase - (t-1)*StackSpan.
	WorkerStackBase = 0x7ffd_0000_0000
	// StackSpan separates consecutive worker stacks.
	StackSpan = 0x10_0000
	// TLSBase is thread 0's TLS block; thread t uses TLSBase + t*TLSSpan.
	TLSBase = 0x7fd0_0000_0000
	// TLSSpan is the size of one TLS block.
	TLSSpan = 0x1_0000
	// PrivSlotSize is the TLS bytes reserved per private-storage slot.
	PrivSlotSize = 64
	// PrivSlotOff is the offset of slot 0 within a TLS block.
	PrivSlotOff = 0x1000
)

// StackTopFor returns the private stack top for thread id (thread 0 is
// the main thread and keeps the program stack).
func StackTopFor(id int) uint64 {
	if id == 0 {
		return 0 // main keeps its own stack
	}
	return WorkerStackBase - uint64(id-1)*StackSpan
}

// TLSFor returns the TLS base for thread id.
func TLSFor(id int) uint64 { return TLSBase + uint64(id)*TLSSpan }

// PrivAddr returns the private-storage address of slot for thread id.
func PrivAddr(id int, slot int32) uint64 {
	return TLSFor(id) + PrivSlotOff + uint64(slot)*PrivSlotSize
}

// State is a pool thread's lifecycle state.
type State uint8

const (
	// StateIdle: waiting in the pool.
	StateIdle State = iota
	// StateScheduled: directed at a code address, not yet running.
	StateScheduled
	// StateRunning: executing loop iterations.
	StateRunning
	// StateDone: finished its chunk, waiting for LOOP_FINISH.
	StateDone
)

func (s State) String() string {
	return [...]string{"idle", "scheduled", "running", "done"}[s]
}

// Thread is one Janus thread: a VM context plus pool bookkeeping.
type Thread struct {
	ID    int
	Ctx   *vm.Context
	State State
	// Chunk is the thread's iteration range [Lo, Hi).
	Lo, Hi int64
	// Oldest marks the thread owning the earliest unfinished chunk
	// (the only thread allowed to commit transactions).
	Oldest bool

	// Steps counts instructions executed by this thread since the DBM
	// last folded it into its global step budget. Accumulated
	// thread-locally so host-parallel threads never contend on (or
	// race over) a shared counter; the executor drains it at
	// deterministic points.
	Steps int64
	// TransBlocks/TransInsts/TransCycles accumulate this thread's
	// translation work since the last fold, for the same reason.
	TransBlocks int64
	TransInsts  int64
	TransCycles int64
}

// Pool is the Janus thread pool.
type Pool struct {
	Threads []*Thread
}

// NewPool creates n threads (thread 0 wraps the main context).
func NewPool(n int, mainCtx *vm.Context) *Pool {
	p := &Pool{}
	for i := 0; i < n; i++ {
		t := &Thread{ID: i}
		if i == 0 {
			t.Ctx = mainCtx
		} else {
			t.Ctx = &vm.Context{ID: i}
		}
		p.Threads = append(p.Threads, t)
	}
	return p
}

// Size returns the thread count.
func (p *Pool) Size() int { return len(p.Threads) }

// Chunk is one contiguous iteration range assigned to a thread.
type Chunk struct{ Lo, Hi int64 }

// PartitionChunked splits [0, n) into parts contiguous chunks of size
// ceil(n/parts) (the paper's #iterations/#threads policy).
func PartitionChunked(n int64, parts int) []Chunk {
	out := make([]Chunk, parts)
	if n <= 0 || parts <= 0 {
		return out
	}
	size := (n + int64(parts) - 1) / int64(parts)
	for i := range out {
		lo := int64(i) * size
		hi := lo + size
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		out[i] = Chunk{Lo: lo, Hi: hi}
	}
	return out
}

// RoundRobinChunks yields the k-th chunk of fixed size for a thread in
// round-robin order: thread t's j-th chunk covers
// [ (j*parts + t)*size, +size ).
func RoundRobinChunks(n, size int64, parts, thread int) []Chunk {
	var out []Chunk
	if size <= 0 {
		size = 1
	}
	for j := int64(0); ; j++ {
		lo := (j*int64(parts) + int64(thread)) * size
		if lo >= n {
			break
		}
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Chunk{Lo: lo, Hi: hi})
	}
	return out
}

// ReductionIdentity returns the register bit pattern that initialises a
// thread-private reduction accumulator.
func ReductionIdentity(op guest.Op) uint64 {
	switch op {
	case guest.FMUL:
		return math.Float64bits(1.0)
	default: // ADD, FADD: zero works for both integer and float
		return 0
	}
}

// MergeReduction folds a thread's partial value into the accumulator.
func MergeReduction(op guest.Op, acc, partial uint64) uint64 {
	switch op {
	case guest.ADD:
		return acc + partial
	case guest.FADD:
		return math.Float64bits(math.Float64frombits(acc) + math.Float64frombits(partial))
	case guest.FMUL:
		return math.Float64bits(math.Float64frombits(acc) * math.Float64frombits(partial))
	}
	return partial
}

// LoopCtx is the per-invocation state of a parallel loop shared by the
// DBM's handlers.
type LoopCtx struct {
	LoopID int32
	Init   rules.LoopInitData
	// Trip is the evaluated iteration count for this invocation.
	Trip int64
	// MainSP is the main thread's stack pointer at loop entry, for
	// MEM_MAIN_STACK redirection.
	MainSP uint64
	// EntryRegs snapshots the main thread's registers at loop entry so
	// symbolic expressions can be evaluated during the invocation.
	EntryRegs [guest.NumGPR + 1]uint64
	// ExitTargets are the addresses that terminate a thread's chunk.
	ExitTargets map[uint64]bool
	// ExitPrimary is the lowest exit target: the single-exit fast path
	// for chunk-completion checks, and the deterministic resume point.
	ExitPrimary uint64
	// BoundValue[t] is the patched compare bound for thread t.
	BoundValue []uint64
	// PrivSlots maps slot -> shared cell address + size for copy-back.
	PrivSlots map[int32]PrivSlot
}

// PrivSlot describes one privatised cell.
type PrivSlot struct {
	SharedAddr uint64
	Size       int64
}

// IsExit reports whether pc terminates a thread's chunk. The primary
// exit is the single-exit fast path; the map is consulted only for
// multi-exit loops. Both DBM region engines use this predicate, so the
// chunk-completion condition cannot diverge between them.
func (lc *LoopCtx) IsExit(pc uint64) bool {
	return pc == lc.ExitPrimary || (len(lc.ExitTargets) > 1 && lc.ExitTargets[pc])
}

// EntryReg reads a loop-entry register value.
func (lc *LoopCtx) EntryReg(r guest.Reg) uint64 {
	if r == guest.RegNone {
		return 0
	}
	return lc.EntryRegs[r]
}

// PatchedBound computes the compare-bound value that makes thread t
// leave after iteration hi-1, given the normalised leave-op semantics
// (see internal/sym.solveExit).
func PatchedBound(d rules.UpdateBoundData, entry func(guest.Reg) uint64, hi int64) (uint64, error) {
	init := d.Init.Eval(entry, 0)
	switch d.ExitOp {
	case guest.JGE, guest.JLE, guest.JE:
		return uint64(init + d.Step*hi), nil
	case guest.JG, guest.JL:
		return uint64(init + d.Step*(hi-1)), nil
	}
	return 0, fmt.Errorf("jrt: unsupported leave-op %s", d.ExitOp)
}
