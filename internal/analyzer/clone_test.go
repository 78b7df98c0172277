package analyzer

import (
	"slices"
	"testing"
)

// loopState is the per-run part of a LoopInfo that Clone must copy.
type loopState struct {
	Class                           Class
	Reasons                         []string
	Coverage, ExclCoverage, AvgIter float64
	DepProfiled, ObservedDep        bool
	Selected                        bool
}

func snapshot(p *Program) ([]loopState, int) {
	out := make([]loopState, len(p.Loops))
	for i, li := range p.Loops {
		out[i] = loopState{li.Class, slices.Clone(li.Reasons), li.Coverage, li.ExclCoverage, li.AvgIter, li.DepProfiled, li.ObservedDep, li.Selected}
	}
	return out, p.UnknownProfileIDs
}

// TestCloneIsolatesPerRunState runs the whole profile-application and
// selection sequence on two clones and checks the base analysis they
// came from is untouched, while each clone sees its own results.
func TestCloneIsolatesPerRunState(t *testing.T) {
	base, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	var dyn *LoopInfo
	for _, li := range base.Loops {
		if li.Class == ClassDynDOALL {
			dyn = li
		}
	}
	if dyn == nil {
		t.Fatal("no dynamic loop")
	}
	before, unknownBefore := snapshot(base)

	cov := map[int]float64{}
	avg := map[int]float64{}
	for _, li := range base.Loops {
		cov[li.ID] = 0.5
		avg[li.ID] = 256
	}
	cov[9999] = 0.1 // unknown ID: counted on the clone only

	// The first clone observes a dependence in the dynamic loop (type C
	// demoted to D, one reason appended); the second confirms it
	// independent and selects it.
	a, b := base.Clone(), base.Clone()
	for _, c := range []*Program{a, b} {
		c.ApplyCoverage(cov)
		c.ApplyExclCoverage(cov)
		c.ApplyAvgIters(avg)
	}
	a.ApplyDependences(map[int]bool{dyn.ID: true})
	b.ApplyDependences(map[int]bool{dyn.ID: false})
	opts := SelectOptions{UseProfile: true, MinCoverage: DefaultMinCoverage, UseChecks: true}
	selA, selB := a.SelectLoops(opts), b.SelectLoops(opts)

	after, unknownAfter := snapshot(base)
	for i := range before {
		if !equalState(before[i], after[i]) {
			t.Errorf("base loop %d changed through a clone:\n before %+v\n after  %+v", i, before[i], after[i])
		}
	}
	if unknownAfter != unknownBefore {
		t.Errorf("base UnknownProfileIDs = %d, want %d", unknownAfter, unknownBefore)
	}

	if got := a.LoopByID(dyn.ID); got.Class != ClassDynDep || len(got.Reasons) != len(dyn.Reasons)+1 {
		t.Errorf("clone a: dynamic loop class %s with %d reasons, want %s with %d", got.Class, len(got.Reasons), ClassDynDep, len(dyn.Reasons)+1)
	}
	if got := b.LoopByID(dyn.ID); got.Class != ClassDynDOALL || !got.Selected || len(got.Reasons) != len(dyn.Reasons) {
		t.Errorf("clone b: dynamic loop class %s selected=%v with %d reasons, want %s selected with %d", got.Class, got.Selected, len(got.Reasons), ClassDynDOALL, len(dyn.Reasons))
	}
	if len(selA) != 1 || len(selB) != 2 {
		t.Errorf("selected %d loops on a and %d on b, want 1 and 2", len(selA), len(selB))
	}
	for _, c := range []*Program{a, b} {
		if c.UnknownProfileIDs != unknownBefore+2 {
			t.Errorf("clone UnknownProfileIDs = %d, want %d", c.UnknownProfileIDs, unknownBefore+2)
		}
		for i, li := range c.Loops {
			if li == base.Loops[i] {
				t.Fatalf("clone shares loop record %d with the base", i)
			}
			if bl := base.Loops[i]; len(bl.Reasons) > 0 && &li.Reasons[0] == &bl.Reasons[0] {
				t.Errorf("clone loop %d shares its Reasons backing array with the base", i)
			}
			if li.Loop != base.Loops[i].Loop || li.Sym != base.Loops[i].Sym || li.Dep != base.Loops[i].Dep {
				t.Errorf("clone loop %d does not share the read-only analysis", i)
			}
		}
	}
}

func equalState(x, y loopState) bool {
	return x.Class == y.Class && slices.Equal(x.Reasons, y.Reasons) &&
		x.Coverage == y.Coverage && x.ExclCoverage == y.ExclCoverage && x.AvgIter == y.AvgIter &&
		x.DepProfiled == y.DepProfiled && x.ObservedDep == y.ObservedDep && x.Selected == y.Selected
}
