package dbm

import (
	"reflect"
	"testing"
	"unsafe"

	"janus/internal/jrt"
)

// namedSpan returns the byte range [lo, hi) covered by the named
// (non-blank) fields of struct type typ: everything but the padding.
func namedSpan(typ reflect.Type) (lo, hi uintptr) {
	lo = typ.Size()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			continue
		}
		lo = min(lo, f.Offset)
		hi = max(hi, f.Offset+f.Type.Size())
	}
	return lo, hi
}

// TestHostParallelLayout guards the cache-line layout of the state that
// host-parallel workers write on every block or instruction: if two
// workers' hot fields could share a 64-byte line, every such write
// would invalidate the line in the other core's cache, which costs the
// engine about a quarter more CPU. A new field added to one of these
// structs counts as hot, so it must come with enough padding.
func TestHostParallelLayout(t *testing.T) {
	// Per-thread values sit back to back: lastBlk slots in one slice,
	// jrt.Threads as heap neighbours of one size class. The named
	// fields of two such values are at least a cache line apart, and
	// so can never share a line at any alignment, exactly when the
	// padding around them adds up to a cache line.
	for _, v := range []any{jrt.Thread{}, blkSlot{}} {
		typ := reflect.TypeOf(v)
		lo, hi := namedSpan(typ)
		if pad := typ.Size() - (hi - lo); pad < jrt.CacheLine {
			t.Errorf("%v: %d bytes of fields in %d; neighbouring threads' fields are %d bytes apart, want >= %d",
				typ, hi-lo, typ.Size(), pad, jrt.CacheLine)
		}
	}

	// The region's failed flag is read on every block by every worker;
	// it must not share a line with the budget pool, which every lease
	// writes, nor with whatever the allocator places after the struct.
	var rb regionBudget
	if gap := unsafe.Offsetof(rb.failed) - (unsafe.Offsetof(rb.pool) + unsafe.Sizeof(rb.pool)); gap < jrt.CacheLine {
		t.Errorf("regionBudget: failed is %d bytes after pool, want >= %d", gap, jrt.CacheLine)
	}
	if tail := unsafe.Sizeof(rb) - (unsafe.Offsetof(rb.failed) + unsafe.Sizeof(rb.failed)); tail < jrt.CacheLine {
		t.Errorf("regionBudget: %d bytes after failed, want >= %d", tail, jrt.CacheLine)
	}
}
