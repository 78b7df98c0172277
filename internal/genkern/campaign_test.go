package genkern

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// campaignFiles snapshots a campaign corpus directory: sorted file
// names mapped to contents.
func campaignFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

func sameFiles(t *testing.T, label string, a, b map[string]string) {
	t.Helper()
	var an, bn []string
	for n := range a {
		an = append(an, n)
	}
	for n := range b {
		bn = append(bn, n)
	}
	sort.Strings(an)
	sort.Strings(bn)
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		t.Fatalf("%s: file sets differ:\n a: %v\n b: %v", label, an, bn)
	}
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("%s: file %s differs:\n a: %q\n b: %q", label, n, a[n], b[n])
		}
	}
}

// TestCampaignDeterministicAndResumable pins the two campaign
// contracts at once: a single 18-iteration run and a 9+9 split run
// (stop, then resume from the persisted corpus and state) produce
// byte-identical corpus directories and the same coverage.
func TestCampaignDeterministicAndResumable(t *testing.T) {
	const seed = 5
	oneShot := t.TempDir()
	split := t.TempDir()

	full, err := RunCampaign(CampaignConfig{Dir: oneShot, Seed: seed, MaxIters: 18})
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed || full.StartIter != 0 {
		t.Fatalf("fresh campaign reported resumed=%v start-iter=%d", full.Resumed, full.StartIter)
	}
	if full.Iters != 18 {
		t.Fatalf("campaign ran %d iters, want 18", full.Iters)
	}
	if full.Corpus == 0 || full.Cells == 0 || full.NewCells == 0 {
		t.Fatalf("18 fresh iterations retained nothing: %s", full)
	}

	first, err := RunCampaign(CampaignConfig{Dir: split, Seed: seed, MaxIters: 9})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunCampaign(CampaignConfig{Dir: split, Seed: seed, MaxIters: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Resumed || second.StartIter != 9 {
		t.Fatalf("second half did not resume: resumed=%v start-iter=%d", second.Resumed, second.StartIter)
	}
	if first.Iters+second.Iters != full.Iters {
		t.Fatalf("split run iterations %d+%d != %d", first.Iters, second.Iters, full.Iters)
	}
	if second.Corpus != full.Corpus || second.Cells != full.Cells {
		t.Fatalf("split run ended at corpus=%d cells=%d, one-shot at corpus=%d cells=%d",
			second.Corpus, second.Cells, full.Corpus, full.Cells)
	}
	if first.NewCells+second.NewCells != full.NewCells {
		t.Fatalf("split new-cells %d+%d != %d", first.NewCells, second.NewCells, full.NewCells)
	}
	sameFiles(t, "corpus", campaignFiles(t, filepath.Join(oneShot, "corpus")), campaignFiles(t, filepath.Join(split, "corpus")))

	// The stats line is machine-parsable in the documented format.
	line := second.String()
	for _, field := range []string{"campaign: iters=", "start-iter=", "corpus=", "cells=", "new-cells=", "divergences=", "elapsed=", "resumed=true"} {
		if !strings.Contains(line, field) {
			t.Errorf("stats line %q missing %q", line, field)
		}
	}

	// A dir remembers its seed: resuming under a different one must be
	// refused rather than silently forking the decision stream.
	if _, err := RunCampaign(CampaignConfig{Dir: split, Seed: seed + 1, MaxIters: 1}); err == nil {
		t.Fatal("resuming with a different campaign seed did not error")
	}
}

// TestCampaignSurvivesTornAndForeignFiles pins crash-consistency at the
// file level: unfinished temp files (a kill -9 mid-publication), foreign
// junk and truncated entries in the corpus directory are skipped — the
// campaign resumes cleanly and never trips over them.
func TestCampaignSurvivesTornAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	const seed = 5
	if _, err := RunCampaign(CampaignConfig{Dir: dir, Seed: seed, MaxIters: 6}); err != nil {
		t.Fatal(err)
	}
	corpusDir := filepath.Join(dir, "corpus")
	junk := map[string]string{
		".tmp-12345":      "half-written publication",
		"foreign.entry":   "not a campaign entry at all",
		"truncated.entry": entryHeader + "\nshape zz",
		"notes.txt":       "a human left this here",
	}
	for name, body := range junk {
		if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := campaignFiles(t, corpusDir)
	st, err := RunCampaign(CampaignConfig{Dir: dir, Seed: seed, MaxIters: 6})
	if err != nil {
		t.Fatalf("campaign tripped over torn/foreign files: %v", err)
	}
	if !st.Resumed || st.StartIter != 6 {
		t.Fatalf("resume lost the persisted state: resumed=%v start-iter=%d", st.Resumed, st.StartIter)
	}
	// The junk is untouched (the campaign owns only what it published)
	// and every real entry it published before is still byte-identical.
	after := campaignFiles(t, corpusDir)
	for name, body := range before {
		got, ok := after[name]
		if !ok {
			t.Errorf("resume deleted %s", name)
		} else if got != body {
			t.Errorf("resume rewrote %s", name)
		}
	}

	// truncated.entry decodes as garbage and must not have polluted the
	// corpus: a third run still agrees with a clean split replay.
	clean := t.TempDir()
	if _, err := RunCampaign(CampaignConfig{Dir: clean, Seed: seed, MaxIters: 12}); err != nil {
		t.Fatal(err)
	}
	cleanFiles := campaignFiles(t, filepath.Join(clean, "corpus"))
	for name, body := range cleanFiles {
		if after[name] != body {
			t.Errorf("entry %s diverged from the clean replay", name)
		}
	}
}

// TestCampaignEntriesRoundTrip pins the corpus entry codec.
func TestCampaignEntriesRoundTrip(t *testing.T) {
	e := corpusEntry{
		shape: validShapes()[15],
		seed:  12345,
		iter:  42,
		cells: []Cell{
			{Kind: KindCarried, DistBucket: 2, Alias: aliasNone, Verdict: 2, Engine: engineHostParallel},
			{Kind: KindIndexChase, DistBucket: 0, Alias: aliasCollide, Verdict: 3, Engine: engineNone, Recovered: true},
		},
	}
	got, err := decodeEntry(encodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEqual(got.shape, e.shape) || got.seed != e.seed || got.iter != e.iter || len(got.cells) != len(e.cells) {
		t.Fatalf("entry round trip lost fields: %+v vs %+v", got, e)
	}
	for i := range e.cells {
		if got.cells[i] != e.cells[i] {
			t.Fatalf("cell %d round trip: %+v vs %+v", i, got.cells[i], e.cells[i])
		}
	}
	if _, err := decodeEntry([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded as an entry")
	}
}

// TestCampaignRejectsUnboundedConfig pins the guard rails.
func TestCampaignRejectsUnboundedConfig(t *testing.T) {
	if _, err := RunCampaign(CampaignConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("campaign without a time or iteration bound did not error")
	}
	if _, err := RunCampaign(CampaignConfig{MaxIters: 1}); err == nil {
		t.Fatal("campaign without a directory did not error")
	}
}
