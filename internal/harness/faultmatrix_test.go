package harness

// Fault-injection matrix: every injection point, under the
// host-parallel engine, at GOMAXPROCS 1 and N, must leave the full
// janus-bench output byte-identical to the committed golden fixture —
// recovery re-executes every failed region round-robin, and nothing
// about a recovered run may leak into a figure. Each cell also asserts
// the recovery path actually ran (an injection plan that never fires
// would pass the golden comparison vacuously).

import (
	"fmt"
	"runtime"
	"testing"

	"janus/internal/faultinject"
)

func TestFaultInjectionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("8 full-suite renders; run without -short")
	}
	want := readGolden(t)
	procsN := max(runtime.NumCPU(), 4)
	for _, spec := range []string{"scan-defeat", "worker-panic", "stall", "budget"} {
		for _, procs := range []int{1, procsN} {
			// "static" names the engine under injection: the
			// static-chunk host-parallel engine.
			name := fmt.Sprintf("%s/static/gomaxprocs=%d", spec, procs)
			t.Run(name, func(t *testing.T) {
				plan, err := faultinject.ParsePlan(spec)
				if err != nil {
					t.Fatal(err)
				}
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				o := DefaultOptions()
				o.Inject = plan
				o.Recovery = &RecoveryLog{}
				diffGolden(t, name, renderSuite(t, o), want)
				if o.Recovery.ParRecoveries.Load() == 0 {
					t.Errorf("injection %q never triggered a recovery", spec)
				}
				if o.Recovery.DemotedLoops.Load() == 0 {
					t.Errorf("recovery ran but demoted no loop")
				}
			})
		}
	}
}
