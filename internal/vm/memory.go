// Package vm implements the guest machine: paged memory, per-thread
// execution contexts, single-instruction semantics with a virtual cycle
// cost model, and a native (unmodified) runner.
//
// The virtual cycle clock substitutes for wall-clock measurement on real
// hardware: every instruction charges its cost-model latency to the
// executing context, and the parallel runtime combines per-thread clocks
// (max across threads plus orchestration overheads) to produce the
// elapsed time of a parallel region. This keeps every experiment
// deterministic and host-independent.
//
// Memory is shared between guest threads, but all thread-private access
// state (the software TLB and the last-leaf cache) lives in per-thread
// MemViews, so guest threads scheduled on different host goroutines can
// access disjoint words concurrently without synchronisation on the hot
// path. Lookups never lock and never write shared state: the leaf
// directory is an immutable map published through an atomic pointer,
// and page-table slots are atomic pointers, so lock-free readers never
// observe a torn update. Structural changes (page and leaf allocation)
// are serialised by a mutex on the miss path; a leaf insert copies the
// directory and publishes the copy.
package vm

import (
	"encoding/binary"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	// leafBits pages share one directory leaf, so the map lookup in the
	// translation slow path happens once per 4 MiB region rather than
	// once per 4 KiB page.
	leafBits = 10
	leafMask = (1 << leafBits) - 1
)

// FNV-1a constants, folded 64 bits at a time over page contents.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// noPage is the TLB tag for an empty slot; no real page number reaches
// it (addresses are 64-bit, page numbers at most 52-bit).
const noPage = ^uint64(0)

// page is one 4 KiB block plus its cached digest state. digest and
// nonzero are valid only while dirty is zero; every write path sets
// dirty and the hash routines refresh lazily. dirty is accessed
// atomically because host-parallel guest threads writing disjoint words
// of the same page mark it dirty concurrently.
type page struct {
	data    [pageSize]byte
	key     uint64 // addr >> pageShift
	digest  uint64
	nonzero bool
	dirty   atomic.Uint32
	// snapEpoch is the checkpoint epoch this page was last saved under
	// (see checkpoint.go); stale values never match a live checkpoint.
	snapEpoch atomic.Uint64
}

// markDirty invalidates the cached digest. The common case (page
// already dirty) is a single atomic load, which on the hot store path
// costs no more than a plain load on mainstream architectures.
func (p *page) markDirty() {
	if p.dirty.Load() == 0 {
		p.dirty.Store(1)
	}
}

// refresh recomputes the digest and nonzero flag in one pass over the
// page, folding 64-bit words FNV-1a style.
func (p *page) refresh() {
	h := uint64(fnvOffset)
	var nz uint64
	for i := 0; i < pageSize; i += 8 {
		w := binary.LittleEndian.Uint64(p.data[i:])
		nz |= w
		h = (h ^ w) * fnvPrime
	}
	p.digest = h
	p.nonzero = nz != 0
	p.dirty.Store(0)
}

// leaf is one directory entry: an array of page slots covering a 4 MiB
// aligned span. Slots are atomic pointers: they transition nil→page
// exactly once (under Memory.mu), and lock-free readers on other
// goroutines must not observe a torn write.
type leaf struct {
	pages [1 << leafBits]atomic.Pointer[page]
}

// Memory is a sparse, zero-filled, byte-addressable 64-bit space backed
// by a two-level page table: a directory of 4 MiB leaves (an immutable
// map keyed by high address bits, consulted only on TLB+leaf miss) each
// holding an array of 4 KiB page slots.
//
// All addresses are readable and writable; the simulator does not model
// protection faults (the paper's transformations never rely on them).
//
// Memory's own accessor methods (Read64, WriteBytes, …) go through an
// embedded default MemView and are not safe for concurrent use; the
// host-parallel runtime gives each guest thread its own MemView (see
// NewView), which may be used concurrently with other views as long as
// the guest threads' written words are disjoint — exactly the
// disjointness Janus' static analysis and runtime bounds checks
// guarantee for the loops it parallelises.
type Memory struct {
	// dir is the leaf directory. The map it points to is never mutated
	// after publication: a leaf insert copies it under mu and stores
	// the copy, so every lookup is one atomic load and a map read, with
	// no lock and no write to a shared cache line. Leaves are few (one
	// per touched 4 MiB span), so the copies are small and rare.
	dir atomic.Pointer[map[uint64]*leaf]

	// ckpt is the active region checkpoint, or nil. Deliberately a plain
	// pointer: it flips only on the orchestrating goroutine while no
	// guest thread runs (before spawn / after join), so store fast paths
	// read it without atomics (see checkpoint.go).
	ckpt *Checkpoint
	// ckptEpoch numbers checkpoints so page stamps from released
	// checkpoints never alias a live one.
	ckptEpoch uint64

	// view is the default single-threaded access port used by Memory's
	// own methods. It also keeps mu, which page allocation writes, off
	// the cache line of the fields every access reads (dir, ckpt).
	view MemView

	// mu serialises structural growth: directory inserts, page
	// allocation, and the all/sorted bookkeeping. The data fast paths
	// never take it.
	mu sync.Mutex

	// all lists every allocated page for the hash routines; it is
	// re-sorted by page number on demand after new allocations.
	all    []*page
	sorted bool
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	m := &Memory{}
	m.dir.Store(&map[uint64]*leaf{})
	m.view.init(m)
	return m
}

// NewView returns a fresh per-thread access port onto m. Distinct views
// may be used from distinct goroutines concurrently; a single view must
// not be shared between goroutines.
func (m *Memory) NewView() *MemView {
	v := &MemView{}
	v.init(m)
	return v
}

// leafFor returns the directory leaf covering leafKey, allocating it if
// absent and create is set. A hit takes no lock.
func (m *Memory) leafFor(leafKey uint64, create bool) *leaf {
	if lf := (*m.dir.Load())[leafKey]; lf != nil || !create {
		return lf
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dir := *m.dir.Load()
	if lf := dir[leafKey]; lf != nil {
		return lf // another thread inserted it first
	}
	lf := new(leaf)
	grown := make(map[uint64]*leaf, len(dir)+1)
	maps.Copy(grown, dir)
	grown[leafKey] = lf
	m.dir.Store(&grown)
	return lf
}

// addPage allocates the page with the given key inside lf, or returns
// the existing one if another thread won the race.
func (m *Memory) addPage(lf *leaf, key uint64) *page {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := &lf.pages[key&leafMask]
	if p := slot.Load(); p != nil {
		return p
	}
	p := &page{key: key}
	p.dirty.Store(1)
	m.all = append(m.all, p)
	m.sorted = false
	slot.Store(p)
	return p
}

// MemView is one thread's access port onto a shared Memory: the
// thread-private software TLB (the last two distinct pages touched) and
// the last-leaf cache (the directory entry of the most recent TLB miss,
// so misses within the same 4 MiB span skip the directory map). Views
// hold no guest state of their own — dropping or recreating a view
// never changes simulated results, only host-side locality.
type MemView struct {
	mem *Memory

	// Software TLB: the last two distinct pages touched, most recent
	// first.
	tlbKey  [2]uint64
	tlbPage [2]*page

	// lastLeaf caches the directory entry of the most recent TLB miss.
	lastLeafKey uint64
	lastLeaf    *leaf
}

func (v *MemView) init(m *Memory) {
	v.mem = m
	v.tlbKey = [2]uint64{noPage, noPage}
	v.lastLeafKey = noPage
	v.lastLeaf = nil
	v.tlbPage = [2]*page{}
}

// find returns the resident page containing addr, or nil.
func (v *MemView) find(addr uint64) *page {
	key := addr >> pageShift
	if key == v.tlbKey[0] {
		return v.tlbPage[0]
	}
	if key == v.tlbKey[1] {
		v.tlbKey[0], v.tlbKey[1] = v.tlbKey[1], v.tlbKey[0]
		v.tlbPage[0], v.tlbPage[1] = v.tlbPage[1], v.tlbPage[0]
		return v.tlbPage[0]
	}
	return v.walk(key, false)
}

// ensure returns the page containing addr, allocating it if absent.
func (v *MemView) ensure(addr uint64) *page {
	key := addr >> pageShift
	if key == v.tlbKey[0] {
		return v.tlbPage[0]
	}
	if key == v.tlbKey[1] {
		v.tlbKey[0], v.tlbKey[1] = v.tlbKey[1], v.tlbKey[0]
		v.tlbPage[0], v.tlbPage[1] = v.tlbPage[1], v.tlbPage[0]
		return v.tlbPage[0]
	}
	return v.walk(key, true)
}

// walk is the TLB-miss path: two-level table lookup, optional
// allocation, and TLB fill. Misses without allocation are not cached,
// so a later allocation of the same page cannot be shadowed by a stale
// negative entry.
func (v *MemView) walk(key uint64, create bool) *page {
	leafKey := key >> leafBits
	lf := v.lastLeaf
	if lf == nil || v.lastLeafKey != leafKey {
		lf = v.mem.leafFor(leafKey, create)
		if lf == nil {
			return nil
		}
		v.lastLeafKey = leafKey
		v.lastLeaf = lf
	}
	p := lf.pages[key&leafMask].Load()
	if p == nil {
		if !create {
			return nil
		}
		p = v.mem.addPage(lf, key)
	}
	v.tlbKey[1], v.tlbPage[1] = v.tlbKey[0], v.tlbPage[0]
	v.tlbKey[0], v.tlbPage[0] = key, p
	return p
}

// touchCkpt is the checkpointed store path: save the pre-write page
// image, then invalidate the cached digest as usual. Every store path
// must run this before mutating p's data when a checkpoint is active.
// The hook is open-coded at each store site (ckpt nil-check + else
// markDirty) rather than wrapped in a helper: a wrapper containing
// this call exceeds the inlining budget, and the store fast paths are
// themselves too big to inline, so a helper would put a real function
// call on every store. Open-coded, the no-checkpoint cost is one
// plain pointer load and a predicted branch.
func (v *MemView) touchCkpt(p *page) {
	v.mem.ckpt.save(p)
	p.markDirty()
}

// Load8 returns the byte at addr.
func (v *MemView) Load8(addr uint64) byte {
	p := v.find(addr)
	if p == nil {
		return 0
	}
	return p.data[addr&pageMask]
}

// Store8 sets the byte at addr.
func (v *MemView) Store8(addr uint64, b byte) {
	p := v.ensure(addr)
	if v.mem.ckpt != nil {
		v.touchCkpt(p)
	} else {
		p.markDirty()
	}
	p.data[addr&pageMask] = b
}

// Read64 loads a little-endian 64-bit word from addr.
func (v *MemView) Read64(addr uint64) uint64 {
	if off := addr & pageMask; off <= pageSize-8 {
		if p := v.find(addr); p != nil {
			return binary.LittleEndian.Uint64(p.data[off : off+8])
		}
		return 0
	}
	return v.read64Cross(addr)
}

func (v *MemView) read64Cross(addr uint64) uint64 {
	var x uint64
	for i := uint64(0); i < 8; i++ {
		x |= uint64(v.Load8(addr+i)) << (8 * i)
	}
	return x
}

// Write64 stores a little-endian 64-bit word at addr.
func (v *MemView) Write64(addr uint64, x uint64) {
	if off := addr & pageMask; off <= pageSize-8 {
		p := v.ensure(addr)
		if v.mem.ckpt != nil {
			v.touchCkpt(p)
		} else {
			p.markDirty()
		}
		binary.LittleEndian.PutUint64(p.data[off:off+8], x)
		return
	}
	v.write64Cross(addr, x)
}

func (v *MemView) write64Cross(addr uint64, x uint64) {
	for i := uint64(0); i < 8; i++ {
		v.Store8(addr+i, byte(x>>(8*i)))
	}
}

// WriteBytes copies b into memory starting at addr, one page span per
// copy.
func (v *MemView) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := v.ensure(addr)
		if v.mem.ckpt != nil {
			v.touchCkpt(p)
		} else {
			p.markDirty()
		}
		n := copy(p.data[addr&pageMask:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadInto fills dst with the bytes starting at addr, one page span per
// copy, without allocating.
func (v *MemView) ReadInto(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & pageMask
		span := pageSize - int(off)
		if span > len(dst) {
			span = len(dst)
		}
		if p := v.find(addr); p != nil {
			copy(dst[:span], p.data[off:])
		} else {
			clear(dst[:span])
		}
		dst = dst[span:]
		addr += uint64(span)
	}
}

// Copy moves n bytes from src to dst inside the address space using
// page-span copies, without allocating. Overlapping ranges copy in
// ascending address order (the runtime's writeback ranges never
// overlap).
func (v *MemView) Copy(dst, src uint64, n int) {
	for n > 0 {
		span := pageSize - int(src&pageMask)
		if d := pageSize - int(dst&pageMask); d < span {
			span = d
		}
		if span > n {
			span = n
		}
		dp := v.ensure(dst)
		if v.mem.ckpt != nil {
			v.touchCkpt(dp)
		} else {
			dp.markDirty()
		}
		do := dst & pageMask
		if sp := v.find(src); sp != nil {
			copy(dp.data[do:int(do)+span], sp.data[src&pageMask:])
		} else {
			clear(dp.data[do : int(do)+span])
		}
		src += uint64(span)
		dst += uint64(span)
		n -= span
	}
}

// Load8 returns the byte at addr.
func (m *Memory) Load8(addr uint64) byte { return m.view.Load8(addr) }

// Store8 sets the byte at addr.
func (m *Memory) Store8(addr uint64, b byte) { m.view.Store8(addr, b) }

// Read64 loads a little-endian 64-bit word from addr.
func (m *Memory) Read64(addr uint64) uint64 { return m.view.Read64(addr) }

// Write64 stores a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr uint64, x uint64) { m.view.Write64(addr, x) }

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) { m.view.WriteBytes(addr, b) }

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.view.ReadInto(addr, out)
	return out
}

// ReadInto fills dst with the bytes starting at addr without
// allocating.
func (m *Memory) ReadInto(addr uint64, dst []byte) { m.view.ReadInto(addr, dst) }

// Copy moves n bytes from src to dst inside the address space.
func (m *Memory) Copy(dst, src uint64, n int) { m.view.Copy(dst, src, n) }

// Hash returns a digest over all resident pages, used to compare final
// memory images between native and parallelised executions. Zero pages
// that were never touched do not contribute, and pages that contain only
// zeroes hash identically to absent pages. Per-page digests are cached
// and only pages written since the last call are re-hashed.
//
// Hash must not run concurrently with guest writes; the runtime only
// hashes between regions, when a single goroutine owns the memory.
func (m *Memory) Hash() uint64 {
	return m.hashBelow(^uint64(0))
}

// HashBelow digests only resident pages whose addresses are below
// limit, so runtime-private regions (worker stacks, TLS) can be
// excluded when comparing a parallelised run against a native one.
func (m *Memory) HashBelow(limit uint64) uint64 {
	return m.hashBelow(limit)
}

func (m *Memory) hashBelow(limit uint64) uint64 {
	m.mu.Lock()
	if !m.sorted {
		sort.Slice(m.all, func(i, j int) bool { return m.all[i].key < m.all[j].key })
		m.sorted = true
	}
	all := m.all
	m.mu.Unlock()
	h := uint64(fnvOffset)
	for _, p := range all {
		if p.key<<pageShift >= limit {
			break
		}
		if p.dirty.Load() != 0 {
			p.refresh()
		}
		if !p.nonzero {
			continue
		}
		h = (h ^ p.key) * fnvPrime
		h = (h ^ p.digest) * fnvPrime
	}
	return h
}

// Pages returns the number of resident pages (diagnostics only).
func (m *Memory) Pages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.all)
}

// Bus is the memory interface instructions execute against. The plain
// machine memory and per-thread MemViews implement it; the STM wraps it
// with buffering during speculative execution.
type Bus interface {
	Read64(addr uint64) uint64
	Write64(addr uint64, v uint64)
}

var (
	_ Bus = (*Memory)(nil)
	_ Bus = (*MemView)(nil)
)
