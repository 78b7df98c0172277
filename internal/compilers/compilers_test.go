package compilers

import (
	"testing"

	"janus/internal/workloads"
)

func TestGccConservativeOnLibraryCalls(t *testing.T) {
	// bwaves' hot loop calls pow: gcc-like parallelisation must skip it.
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallelise(GCC, exe, 8, true, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Fatal("no speedup computed")
	}
	icc, err := Parallelise(ICC, exe, 8, true, libs...)
	if err != nil {
		t.Fatal(err)
	}
	// icc admits checked loops, so it parallelises at least as many.
	if icc.LoopsParallelised < res.LoopsParallelised {
		t.Fatalf("icc (%d loops) should cover >= gcc (%d)", icc.LoopsParallelised, res.LoopsParallelised)
	}
}

func TestCompilersBeatNothingOnStaticDOALL(t *testing.T) {
	exe, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallelise(GCC, exe, 8, true, libs...)
	if err != nil {
		t.Fatal(err)
	}
	// libquantum is dominated by constant-base static DOALL loops: even
	// a conservative compiler parallelises it well.
	if res.Speedup < 3 {
		t.Fatalf("gcc on libquantum: %.2fx", res.Speedup)
	}
	if res.LoopsParallelised == 0 {
		t.Fatal("no loops parallelised")
	}
}

func TestKindStrings(t *testing.T) {
	if GCC.String() != "gcc" || ICC.String() != "icc" {
		t.Fatal("kind names")
	}
}
