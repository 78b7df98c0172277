package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"janus/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/static-schedule.json from the current analyser")

// Each checker must report a failure when its reference or the output
// is perturbed, and pass on the unperturbed pair.
func TestCheckersRejectPerturbed(t *testing.T) {
	t.Run("parallelise", func(t *testing.T) {
		want, err := fig7Janus(fig7Golden)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := strconv.ParseFloat(want["470.lbm"], 64)
		if err := checkSpeedup(want, "470.lbm", got); err != nil {
			t.Fatalf("unperturbed: %v", err)
		}
		if err := checkSpeedup(want, "470.lbm", got+0.01); !errors.Is(err, errMismatch) {
			t.Errorf("perturbed output: got %v, want a mismatch", err)
		}
		want["470.lbm"] = "7.26"
		if err := checkSpeedup(want, "470.lbm", got); !errors.Is(err, errMismatch) {
			t.Errorf("perturbed reference: got %v, want a mismatch", err)
		}
	})
	t.Run("served-warm", func(t *testing.T) {
		if err := checkRender(fig7Golden, fig7Golden); err != nil {
			t.Fatalf("unperturbed: %v", err)
		}
		for _, out := range []string{
			strings.Replace(fig7Golden, "7.25", "7.26", 1),
			strings.TrimSuffix(fig7Golden, "\n"),
			fig7Golden + "\n",
		} {
			if err := checkRender(fig7Golden, out); !errors.Is(err, errMismatch) {
				t.Errorf("perturbed output: got %v, want a mismatch", err)
			}
		}
	})
	t.Run("static-schedule", func(t *testing.T) {
		ref, err := loadStaticExpected()
		if err != nil {
			t.Fatal(err)
		}
		const name = "470.lbm"
		exe, _, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		prog, img, err := schedule(exe)
		if err != nil {
			t.Fatal(err)
		}
		got := outcomeOf(prog)
		if err := checkStatic(name, ref[name], got, img); err != nil {
			t.Fatalf("unperturbed: %v", err)
		}
		classes := map[string]int{}
		for c, n := range ref[name].Classes {
			classes[c] = n
		}
		for c := range classes {
			classes[c]++
			break
		}
		bad := []staticOutcome{
			{Classes: classes, Selected: ref[name].Selected},
			{Classes: ref[name].Classes, Selected: append(append([]int{}, ref[name].Selected...), 99)},
		}
		for _, want := range bad {
			if err := checkStatic(name, want, got, img); !errors.Is(err, errMismatch) {
				t.Errorf("perturbed reference %v: got %v, want a mismatch", want, err)
			}
		}
		for _, bad := range [][]byte{img[:len(img)-1], append(append([]byte{}, img...), 0)} {
			if err := checkStatic(name, ref[name], got, bad); err == nil {
				t.Errorf("perturbed schedule of %d bytes (%d saved) passed the round-trip check", len(bad), len(img))
			}
		}
	})
}

// The embedded figure 7 must be the section the repository's golden
// fixture holds.
func TestFig7ReferenceMatchesFixture(t *testing.T) {
	fixture, err := os.ReadFile("../internal/harness/testdata/janus-bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixture), "\n"+fig7Golden) {
		t.Fatal("testdata/fig7.golden is not a section of internal/harness/testdata/janus-bench.golden")
	}
}

// The static-schedule reference must hold every binary and match the
// current analyser; -update rewrites it.
func TestStaticReference(t *testing.T) {
	got := map[string]staticOutcome{}
	for _, name := range workloads.Names() {
		exe, _, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := schedule(exe)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = outcomeOf(prog)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/static-schedule.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	ref, err := loadStaticExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(got) {
		t.Errorf("reference holds %d binaries, the suite has %d", len(ref), len(got))
	}
	for name, o := range got {
		if err := checkOutcome(name, ref[name], o); err != nil {
			t.Error(err)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the command prints.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key  string
		spec []struct{ Name, Unit, Better string }
		code []declared
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", c.key, len(c.spec), len(c.code))
			continue
		}
		for i, d := range c.code {
			if s := c.spec[i]; s.Name != d.name || s.Unit != d.unit || s.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command %+v", c.key, i, s, d)
			}
		}
	}
}

// A layer's self time excludes the union of its children, overlapping
// or not.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Op: 0, Layer: opLayer, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 0, Layer: "b", Start: 30, End: 60},
		{ID: 3, Parent: 2, Op: 0, Layer: "c", Start: 35, End: 45},
		{ID: 4, Parent: -1, Op: -1, Layer: "a", Start: 100, End: 200},
	}, ops: 1}
	shares, opTime := tr.layerShares()
	want := map[string]int64{opLayer: 50, "a": 30, "b": 20, "c": 10}
	if opTime != 100 || len(shares) != len(want) {
		t.Fatalf("shares %v over %d, want %v over 100", shares, opTime, want)
	}
	for l, v := range want {
		if shares[l] != v {
			t.Errorf("layer %s: self %d, want %d", l, shares[l], v)
		}
	}
	if c := tr.coverage(); c != 0.5 {
		t.Errorf("coverage %v, want 0.5", c)
	}
}

// Over whole rounds the picker draws every index equally often.
func TestPickerRounds(t *testing.T) {
	p := newPicker(7, 9)
	counts := make([]int, 9)
	for i := 0; i < 9*20; i++ {
		counts[p.next()]++
	}
	for i, n := range counts {
		if n != 20 {
			t.Errorf("index %d drawn %d times in 20 rounds", i, n)
		}
	}
}
