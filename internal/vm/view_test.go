package vm

import (
	"runtime"
	"sync"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
)

// TestMemViewSequentialEquivalence checks that views are pure access
// ports: interleaving reads/writes across several views of one memory
// gives the same contents and hash as the same operations through the
// memory's own methods.
func TestMemViewSequentialEquivalence(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	va := []*MemView{a.NewView(), a.NewView(), a.NewView()}
	for i := uint64(0); i < 3000; i++ {
		addr := 0x4000 + i*56 // crosses pages, occasionally unaligned spans
		va[i%3].Write64(addr, i*i+1)
		b.Write64(addr, i*i+1)
	}
	for i := uint64(0); i < 3000; i++ {
		addr := 0x4000 + i*56
		if got, want := va[(i+1)%3].Read64(addr), b.Read64(addr); got != want {
			t.Fatalf("addr %#x: view read %d, memory read %d", addr, got, want)
		}
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("hash mismatch: views %#x, direct %#x", a.Hash(), b.Hash())
	}
}

// TestMemViewConcurrency hammers one shared Memory from many goroutines,
// each with a private view, writing disjoint words and reading a shared
// read-only region — the access pattern Janus' bounds checks guarantee
// for parallelised loops. Run under -race this exercises the TLB, the
// last-leaf cache, concurrent page allocation (all goroutines fault the
// same fresh pages) and the atomic dirty bits.
func TestMemViewConcurrency(t *testing.T) {
	const (
		goroutines = 8
		words      = 4096
	)
	m := NewMemory()
	// Shared read-only region, written before the goroutines start.
	for i := uint64(0); i < words; i++ {
		m.Write64(0x10_0000+i*8, i+7)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			v := m.NewView()
			base := uint64(0x80_0000)
			for i := uint64(0); i < words; i++ {
				// Interleaved-by-thread addresses: every fresh page is
				// faulted by all goroutines at once.
				addr := base + (i*goroutines+g)*8
				v.Write64(addr, g<<32|i)
				if got := v.Read64(0x10_0000 + (i%words)*8); got != (i%words)+7 {
					t.Errorf("shared read at %d: got %d", i, got)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	for g := uint64(0); g < goroutines; g++ {
		for i := uint64(0); i < words; i++ {
			addr := 0x80_0000 + (i*goroutines+g)*8
			if got := m.Read64(addr); got != g<<32|i {
				t.Fatalf("thread %d word %d: got %#x", g, i, got)
			}
		}
	}
	// The hash must equal a sequentially built twin's.
	twin := NewMemory()
	for i := uint64(0); i < words; i++ {
		twin.Write64(0x10_0000+i*8, i+7)
	}
	for g := uint64(0); g < goroutines; g++ {
		for i := uint64(0); i < words; i++ {
			twin.Write64(0x80_0000+(i*goroutines+g)*8, g<<32|i)
		}
	}
	if m.Hash() != twin.Hash() {
		t.Fatalf("hash after concurrent build %#x != sequential twin %#x", m.Hash(), twin.Hash())
	}
}

// TestFetchInstConcurrent checks that instruction fetch is pure: many
// goroutines fetching the same addresses must agree with a reference
// fetched up front.
func TestFetchInstConcurrent(t *testing.T) {
	b := asm.NewBuilder("fetch-race")
	f := b.Func("main")
	for i := 0; i < 64; i++ {
		f.Movi(guest.R1, int64(i))
	}
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Exe.Code) / guest.InstSize
	ref := make([]guest.Inst, n)
	for i := 0; i < n; i++ {
		ref[i], err = m.FetchInst(m.Exe.CodeBase + uint64(i)*guest.InstSize)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*runtime.NumCPU()+2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				in, err := m.FetchInst(m.Exe.CodeBase + uint64(i)*guest.InstSize)
				if err != nil {
					t.Error(err)
					return
				}
				if in != ref[i] {
					t.Errorf("inst %d differs across goroutines", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemViewConcurrentLeafGrowth grows the leaf directory from many
// goroutines at once while others look up existing leaves, so under
// -race it exercises the copy-and-publish insert path against lock-free
// readers. Each view faults pages in fresh 4 MiB leaves at a 4 MiB
// stride, both leaves of its own and leaves all views race to create,
// and alternates with reads of a pre-built region, which misses the
// view's one-entry leaf cache every time.
func TestMemViewConcurrentLeafGrowth(t *testing.T) {
	const (
		views  = 8
		rounds = 16
		leaf   = pageSize << leafBits // 4 MiB
		shared = uint64(0x1000_0000)  // pre-built, read-only region
		fresh  = uint64(0x4000_0000)  // leaves created concurrently
	)
	// own and common are the addresses view g writes in round r: a word
	// in a leaf no other view touches, and a word on view g's own page
	// of a leaf every view creates in the same round.
	own := func(g, r uint64) uint64 { return fresh + (r*views+g)*leaf + g*8 }
	common := func(g, r uint64) uint64 { return fresh + (rounds*views+r)*leaf + g*pageSize }
	build := func(m *Memory) {
		for i := uint64(0); i < 4; i++ {
			m.Write64(shared+i*leaf, i+1)
		}
	}
	m := NewMemory()
	build(m)
	var wg sync.WaitGroup
	for g := uint64(0); g < views; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := m.NewView()
			for r := uint64(0); r < rounds; r++ {
				v.Write64(own(g, r), g<<32|r)
				if got := v.Read64(shared + (r%4)*leaf); got != r%4+1 {
					t.Errorf("view %d round %d: shared read %d, want %d", g, r, got, r%4+1)
					return
				}
				v.Write64(common(g, r), g<<32|r)
			}
		}()
	}
	wg.Wait()

	twin := NewMemory()
	build(twin)
	for g := uint64(0); g < views; g++ {
		for r := uint64(0); r < rounds; r++ {
			for _, addr := range []uint64{own(g, r), common(g, r)} {
				if got := m.Read64(addr); got != g<<32|r {
					t.Fatalf("view %d round %d: word at %#x is %#x", g, r, addr, got)
				}
				twin.Write64(addr, g<<32|r)
			}
		}
	}
	if got, want := len(*m.dir.Load()), len(*twin.dir.Load()); got != want {
		t.Fatalf("directory has %d leaves, sequential twin %d", got, want)
	}
	if m.Hash() != twin.Hash() {
		t.Fatalf("hash after concurrent growth %#x != sequential twin %#x", m.Hash(), twin.Hash())
	}
}
