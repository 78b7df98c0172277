package obj

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"

	"janus/internal/guest"
)

func sampleExe() *Executable {
	code := guest.EncodeAll([]guest.Inst{
		guest.NewInstI(guest.MOVI, guest.R1, 7),
		{Op: guest.RET, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem},
		guest.NewInstI(guest.JMP, guest.RegNone, 0), // PLT stub
	})
	return &Executable{
		Name:     "sample",
		Entry:    DefaultCodeBase,
		CodeBase: DefaultCodeBase,
		Code:     code,
		DataBase: DefaultDataBase,
		Data:     []byte{1, 2, 3, 4},
		Symbols: []Symbol{
			{Name: "main", Addr: DefaultCodeBase, Size: 2 * guest.InstSize, Kind: SymFunc},
			{Name: "tab", Addr: DefaultDataBase, Size: 4, Kind: SymData},
		},
		Imports: []Import{{Name: "pow", PLT: DefaultCodeBase + 2*guest.InstSize}},
	}
}

func TestSectionPredicates(t *testing.T) {
	e := sampleExe()
	if !e.InCode(e.Entry) || e.InCode(e.CodeEnd()) {
		t.Fatal("InCode boundaries wrong")
	}
	if e.DataEnd() != DefaultDataBase+4 {
		t.Fatal("DataEnd wrong")
	}
	if e.Size() != len(e.Code)+4 {
		t.Fatal("Size wrong")
	}
}

func TestInstAt(t *testing.T) {
	e := sampleExe()
	in, err := e.InstAt(e.Entry)
	if err != nil || in.Op != guest.MOVI {
		t.Fatalf("InstAt entry: %v %v", in, err)
	}
	if _, err := e.InstAt(e.Entry + 1); err == nil {
		t.Fatal("misaligned InstAt must fail")
	}
	if _, err := e.InstAt(0xdead0000); err == nil {
		t.Fatal("out-of-section InstAt must fail")
	}
}

func TestSymbolLookups(t *testing.T) {
	e := sampleExe()
	if s, ok := e.SymbolByName("main"); !ok || s.Kind != SymFunc {
		t.Fatal("SymbolByName main")
	}
	if _, ok := e.SymbolByName("ghost"); ok {
		t.Fatal("phantom symbol")
	}
	fns := e.FuncSymbols()
	if len(fns) != 1 || fns[0].Name != "main" {
		t.Fatalf("FuncSymbols: %v", fns)
	}
	if im, ok := e.ImportAt(DefaultCodeBase + 2*guest.InstSize); !ok || im.Name != "pow" {
		t.Fatal("ImportAt")
	}
}

func TestStripKeepsDynamicInfo(t *testing.T) {
	e := sampleExe()
	st := e.Strip()
	if !st.Stripped || len(st.Symbols) != 0 {
		t.Fatal("symbols survive strip")
	}
	// Stripped binaries keep entry, sections, and imports (dynamic
	// symbol information survives stripping in real ELF too).
	if st.Entry != e.Entry || len(st.Imports) != 1 {
		t.Fatal("strip lost dynamic info")
	}
	// Strip must be a deep copy: mutating the copy leaves the original.
	st.Code[0] = 0xEE
	if e.Code[0] == 0xEE {
		t.Fatal("strip aliases code")
	}
}

func TestSaveLoadFull(t *testing.T) {
	e := sampleExe()
	back, err := Load(e.Save())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != e.Name || back.Entry != e.Entry {
		t.Fatal("header mismatch")
	}
	if len(back.Symbols) != 2 || len(back.Imports) != 1 {
		t.Fatalf("tables mismatch: %d syms %d imports", len(back.Symbols), len(back.Imports))
	}
	if back.Symbols[0] != e.Symbols[0] || back.Imports[0] != e.Imports[0] {
		t.Fatal("entries mismatch")
	}
}

func TestLoadTruncationsFail(t *testing.T) {
	img := sampleExe().Save()
	for _, n := range []int{0, 4, 8, 20, len(img) / 2, len(img) - 1} {
		if _, err := Load(img[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestLibraryLookups(t *testing.T) {
	lib := sampleLib()
	if s, ok := lib.SymbolByName("pow"); !ok || s.Addr != DefaultLibBase {
		t.Fatal("library symbol lookup")
	}
	if !lib.InCode(DefaultLibBase) || lib.InCode(DefaultLibBase+3*guest.InstSize) {
		t.Fatal("library InCode bounds")
	}
}

// TestFingerprintMatchesSaveImage pins the shared encoder: the
// streamed fingerprint is the SHA-256 of exactly the Save bytes, and a
// reloaded image keys identically.
func TestFingerprintMatchesSaveImage(t *testing.T) {
	e := sampleExe()
	img := e.Save()
	sum := sha256.Sum256(img)
	if got, want := e.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Fingerprint = %s, want sha256(Save()) = %s", got, want)
	}
	back, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != e.Fingerprint() {
		t.Fatal("Load(e.Save()).Fingerprint() != e.Fingerprint()")
	}
	if !bytes.Equal(back.Save(), img) {
		t.Fatal("Save of a reloaded image is not byte-identical")
	}
}

// TestStripDoesNotInheritFingerprint computes e's key first, so a
// struct copy in Strip would carry the cached value over.
func TestStripDoesNotInheritFingerprint(t *testing.T) {
	e := sampleExe()
	fp := e.Fingerprint()
	st := e.Strip()
	if st.Fingerprint() == fp {
		t.Fatal("stripped copy kept the original's fingerprint")
	}
	if fresh := sampleExe().Strip().Fingerprint(); st.Fingerprint() != fresh {
		t.Fatalf("stripped fingerprint %s depends on the original's cache (fresh strip: %s)", st.Fingerprint(), fresh)
	}
}

// TestFingerprintConcurrent races first calls on one image and one
// library; run under -race it checks the cache is published safely.
func TestFingerprintConcurrent(t *testing.T) {
	e := sampleExe()
	lib := sampleLib()
	want, wantLib := sampleExe().Fingerprint(), sampleLib().Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := e.Fingerprint(); got != want {
				t.Errorf("concurrent Fingerprint = %s, want %s", got, want)
			}
			if got := lib.Fingerprint(); got != wantLib {
				t.Errorf("concurrent library Fingerprint = %s, want %s", got, wantLib)
			}
		}()
	}
	wg.Wait()
}

// TestFingerprintCachedAllocs: after the first call the key is read
// from the image without hashing or allocating.
func TestFingerprintCachedAllocs(t *testing.T) {
	e := sampleExe()
	lib := sampleLib()
	e.Fingerprint()
	lib.Fingerprint()
	if n := testing.AllocsPerRun(100, func() { e.Fingerprint() }); n != 0 {
		t.Errorf("cached Executable.Fingerprint allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { lib.Fingerprint() }); n != 0 {
		t.Errorf("cached Library.Fingerprint allocates %v times per call, want 0", n)
	}
}

// TestLibraryFingerprintEncoding pins the library key to its
// length-prefixed little-endian encoding, which artifact-cache entries
// already on disk were keyed by.
func TestLibraryFingerprintEncoding(t *testing.T) {
	lib := sampleLib()
	var buf bytes.Buffer
	u64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	str := func(s string) { u64(uint64(len(s))); buf.WriteString(s) }
	str(lib.Name)
	u64(lib.Base)
	u64(uint64(len(lib.Code)))
	buf.Write(lib.Code)
	u64(uint64(len(lib.Symbols)))
	for _, s := range lib.Symbols {
		str(s.Name)
		u64(s.Addr)
		u64(s.Size)
		buf.WriteByte(byte(s.Kind))
	}
	sum := sha256.Sum256(buf.Bytes())
	if got, want := lib.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("library Fingerprint = %s, want %s", got, want)
	}
}

func sampleLib() *Library {
	return &Library{
		Name: "libm", Base: DefaultLibBase,
		Code:    make([]byte, 3*guest.InstSize),
		Symbols: []Symbol{{Name: "pow", Addr: DefaultLibBase, Size: 2 * guest.InstSize, Kind: SymFunc}},
	}
}
