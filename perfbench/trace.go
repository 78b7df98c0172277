package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // -1 for a span outside any op
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// opLayer is the layer of an op's root span: its self time is the part
// of the op no layer span covers.
const opLayer = "op"

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// startOp opens the root span of a new op.
func (t *tracer) startOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.addLocked(-1, t.ops-1, "op", opLayer, t.now())
}

// root opens a span that belongs to no op.
func (t *tracer) root(name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(-1, -1, name, layer, t.now())
}

// begin opens a child of parent.
func (t *tracer) begin(parent int, name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(parent, t.spans[parent].Op, name, layer, t.now())
}

// add records a closed child of parent from wall-clock times.
func (t *tracer) add(parent int, name, layer string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.addLocked(parent, t.spans[parent].Op, name, layer, int64(start.Sub(t.t0)))
	t.spans[id].End = int64(end.Sub(t.t0))
}

func (t *tracer) addLocked(parent, op int, name, layer string, start int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Layer: layer, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// step is one call into a layer.
type step struct {
	name, layer string
	f           func() error
}

// steps runs each step in a child span of parent, stopping at the
// first error.
func (t *tracer) steps(parent int, steps []step) error {
	for _, s := range steps {
		id := t.begin(parent, s.name, s.layer)
		err := s.f()
		t.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// total sums the durations of every closed span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []int64 {
	kids := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[i]
		slices.SortFunc(cs, func(a, b span) int { return int(a.Start - b.Start) })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerShares returns each layer's self time within ops and the total
// op time.
func (t *tracer) layerShares() (map[string]int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	shares := map[string]int64{}
	var opTime int64
	for i, s := range t.spans {
		if s.Op < 0 || s.End < 0 {
			continue
		}
		shares[s.Layer] += self[i]
		if s.Parent < 0 {
			opTime += s.End - s.Start
		}
	}
	return shares, opTime
}

// coverage is the share of op time covered by layer spans.
func (t *tracer) coverage() float64 {
	shares, opTime := t.layerShares()
	if opTime == 0 {
		return 0
	}
	return 1 - float64(shares[opLayer])/float64(opTime)
}

// shareTable renders each layer's self-time share of op time.
func (t *tracer) shareTable(workload string) string {
	shares, opTime := t.layerShares()
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	slices.SortFunc(layers, func(a, b string) int { return int(shares[b] - shares[a]) })
	var b strings.Builder
	fmt.Fprintf(&b, "layer shares of op time, %s (%d traced ops, %.1f ms per op)\n", workload, t.ops, float64(opTime)/1e6/float64(max(t.ops, 1)))
	for _, l := range layers {
		name := l
		if l == opLayer {
			name = "(not covered)"
		}
		fmt.Fprintf(&b, "  %-14s %6.1f%%  %10.3f ms/op\n", name, 100*float64(shares[l])/float64(max(opTime, 1)), float64(shares[l])/1e6/float64(max(t.ops, 1)))
	}
	return b.String()
}

// write stores every span as one JSON line under workDir and returns
// the file's path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
