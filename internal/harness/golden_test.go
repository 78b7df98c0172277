package harness

// Golden-output regression test: testdata/janus-bench.golden is the
// canonical full `janus-bench` text output (every figure and table, in
// print order). A fresh render must match it byte for byte — under the
// default configuration and under every axis the determinism contract
// pins: -jobs 1 vs N, host-parallel vs round-robin regions,
// GOMAXPROCS 1 vs N. Any scheduler or engine change that perturbs a
// single figure byte fails here loudly.
//
// Regenerate the fixture after an intentional output change with:
//
//	go test ./internal/harness -run TestGoldenOutput -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/janus-bench.golden from a fresh render")

const goldenPath = "testdata/janus-bench.golden"

// renderSuite regenerates the full suite under o.
func renderSuite(t *testing.T, o Options) string {
	t.Helper()
	out, err := RenderAll(o, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffGolden reports the first line where got departs from want.
func diffGolden(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	g, w := "<eof>", "<eof>"
	if line < len(gl) {
		g = gl[line]
	}
	if line < len(wl) {
		w = wl[line]
	}
	t.Errorf("%s: output departs from %s at line %d:\n got: %q\nwant: %q\n(%d vs %d bytes; run with -update after an intentional change)",
		label, goldenPath, line+1, g, w, len(got), len(want))
}

func readGolden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("missing golden fixture (generate with -update): %v", err)
	}
	return string(data)
}

func TestGoldenOutput(t *testing.T) {
	got := renderSuite(t, DefaultOptions())
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	diffGolden(t, "default options", got, readGolden(t))
}

// TestGoldenAcrossConfigurations renders the suite under every
// determinism axis and compares each render against the committed
// fixture byte for byte.
func TestGoldenAcrossConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite renders across five configurations; run without -short")
	}
	want := readGolden(t)
	jobsN := max(runtime.NumCPU(), 4)
	cases := []struct {
		name       string
		opts       func() Options
		gomaxprocs int
	}{
		{"jobs=1", func() Options { o := DefaultOptions(); o.Jobs = 1; return o }, 0},
		{fmt.Sprintf("jobs=%d", jobsN), func() Options { o := DefaultOptions(); o.Jobs = jobsN; return o }, 0},
		{"round-robin", func() Options { o := DefaultOptions(); o.SingleGoroutine = true; return o }, 0},
		{"gomaxprocs=1", DefaultOptions, 1},
		{fmt.Sprintf("gomaxprocs=%d", jobsN), DefaultOptions, jobsN},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gomaxprocs > 0 {
				prev := runtime.GOMAXPROCS(tc.gomaxprocs)
				defer runtime.GOMAXPROCS(prev)
			}
			diffGolden(t, tc.name, renderSuite(t, tc.opts()), want)
		})
	}
}
