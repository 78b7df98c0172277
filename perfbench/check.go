package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"janus/internal/analyzer"
	"janus/internal/rules"
)

// The references below are committed files, not values the code under
// test computes during a run.

// fig7Golden is figure 7 exactly as janus-bench prints it (the section
// of internal/harness/testdata/janus-bench.golden, kept here so that a
// change to the program cannot move the benchmark's reference).
//
//go:embed testdata/fig7.golden
var fig7Golden string

// staticExpectedJSON holds, per ref/O3 binary, the loop class counts
// and the loop IDs that static selection picks.
//
//go:embed testdata/static-schedule.json
var staticExpectedJSON []byte

// errMismatch marks an op whose output differs from its reference.
var errMismatch = errors.New("output mismatch")

// fig7Janus parses the "Janus" column of a rendered figure 7: benchmark
// name to speedup as printed, two decimals.
func fig7Janus(fig string) (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(fig, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || f[0] == "benchmark" || f[0] == "geomean" {
			continue
		}
		out[f[0]] = f[4]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no figure-7 rows in reference")
	}
	return out, nil
}

// checkSpeedup compares a Janus speedup with the reference column.
func checkSpeedup(want map[string]string, name string, got float64) error {
	w, ok := want[name]
	if !ok {
		return fmt.Errorf("%s: no reference speedup", name)
	}
	if g := fmt.Sprintf("%.2f", got); g != w {
		return fmt.Errorf("%s: speedup %s, reference %s: %w", name, g, w, errMismatch)
	}
	return nil
}

// checkRender compares a rendered figure byte for byte.
func checkRender(want, got string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("render differs from reference at byte %d (%d bytes, reference %d): %w", i, len(got), len(want), errMismatch)
}

// staticOutcome is what the static-schedule checker compares.
type staticOutcome struct {
	Classes  map[string]int `json:"classes"`
	Selected []int          `json:"selected"`
}

func outcomeOf(prog *analyzer.Program) staticOutcome {
	o := staticOutcome{Classes: map[string]int{}, Selected: []int{}}
	for c, n := range prog.ClassCounts() {
		o.Classes[c.String()] = n
	}
	for _, li := range prog.Loops {
		if li.Selected {
			o.Selected = append(o.Selected, li.ID)
		}
	}
	slices.Sort(o.Selected)
	return o
}

func loadStaticExpected() (map[string]staticOutcome, error) {
	var m map[string]staticOutcome
	if err := json.Unmarshal(staticExpectedJSON, &m); err != nil {
		return nil, fmt.Errorf("static-schedule reference: %w", err)
	}
	return m, nil
}

// checkStatic compares one binary's analysis outcome with its reference
// and checks that the saved schedule img survives Load then Save
// unchanged. Raw schedule bytes are not pinned: the format may change.
func checkStatic(name string, want, got staticOutcome, img []byte) error {
	if err := checkOutcome(name, want, got); err != nil {
		return err
	}
	s, err := rules.Load(img)
	if err != nil {
		return fmt.Errorf("%s: reload schedule: %w", name, err)
	}
	again, err := s.Save()
	if err != nil {
		return fmt.Errorf("%s: re-save schedule: %w", name, err)
	}
	if !bytes.Equal(again, img) {
		return fmt.Errorf("%s: schedule changed across Load and Save: %w", name, errMismatch)
	}
	return nil
}

func checkOutcome(name string, want, got staticOutcome) error {
	if !maps.Equal(want.Classes, got.Classes) {
		return fmt.Errorf("%s: loop classes %v, reference %v: %w", name, got.Classes, want.Classes, errMismatch)
	}
	if !slices.Equal(want.Selected, got.Selected) {
		return fmt.Errorf("%s: selected loops %v, reference %v: %w", name, got.Selected, want.Selected, errMismatch)
	}
	return nil
}
