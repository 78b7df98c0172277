package genkern

import "fmt"

// Shape-space coverage. A campaign retains a mutated shape only if its
// oracle run landed on at least one behaviour cell no earlier corpus
// member reached, so the corpus stays a minimal frontier of the
// (structure × pipeline-verdict × execution-path) space instead of an
// ever-growing pile of near-duplicates.

// Cell is one point of the coverage space: what the loop was (kind,
// distance bucket, alias layout), what the analyser concluded about it
// (verdict), which engine tier actually executed it, and whether the
// speculation recovery path fired during the run.
type Cell struct {
	Kind       SegKind
	DistBucket uint8
	Alias      uint8
	Verdict    uint8
	Engine     uint8
	Recovered  bool
}

// Distance buckets: 0 = kind has no dependence distance, then 1, 2..4,
// 5..8, 9..MaxDist.
func distBucket(k SegKind, d int64) uint8 {
	switch k {
	case KindCarried, KindMustAlias, KindMayAlias:
	default:
		return 0
	}
	switch {
	case d <= 1:
		return 1
	case d <= 4:
		return 2
	case d <= 8:
		return 3
	default:
		return 4
	}
}

// Alias-layout codes.
const (
	aliasNone uint8 = iota
	aliasMust
	aliasMay
	aliasCollide
	aliasIndexed
	aliasPtrTable
)

func aliasLayout(s Seg) uint8 {
	switch s.Kind {
	case KindMustAlias:
		return aliasMust
	case KindMayAlias:
		return aliasMay
	case KindIndexChase:
		if s.Collide {
			return aliasCollide
		}
		return aliasIndexed
	case KindDoallRuntime:
		return aliasPtrTable
	}
	return aliasNone
}

// Engine-taken codes (kernel granularity: the highest tier any engine
// run's region counters reached).
const (
	engineNone uint8 = iota
	engineRoundRobin
	engineHostParallel
)

func (c Cell) String() string {
	r := 0
	if c.Recovered {
		r = 1
	}
	return fmt.Sprintf("%s/d%d/a%d/v%d/e%d/r%d", c.Kind, c.DistBucket, c.Alias, c.Verdict, c.Engine, r)
}

// CellsOf projects one oracle report onto coverage cells, one per
// analysed loop. shape must be the shape the report's kernel was built
// from (Truth.Seg indexes into it).
func CellsOf(shape Shape, rep *Report) []Cell {
	var engine uint8
	var recovered bool
	for _, run := range rep.Engines {
		if run.Stats.ParRecoveries > 0 {
			recovered = true
		}
		e := engineNone
		if run.Stats.HostParRegions > 0 {
			e = engineHostParallel
		} else if run.Stats.ParRegions > 0 {
			e = engineRoundRobin
		}
		if e > engine {
			engine = e
		}
	}
	out := make([]Cell, 0, len(rep.Loops))
	for _, lv := range rep.Loops {
		c := Cell{
			Kind:      lv.Truth.Kind,
			Verdict:   uint8(lv.Class),
			Recovered: recovered,
		}
		if lv.Truth.Seg >= 0 && lv.Truth.Seg < len(shape.Segs) {
			s := shape.Segs[lv.Truth.Seg]
			c.DistBucket = distBucket(lv.Truth.Kind, s.Dist)
			c.Alias = aliasLayout(s)
		}
		if lv.Selected {
			c.Engine = engine
		}
		out = append(out, c)
	}
	return out
}

// Coverage is the campaign's accumulated cell set.
type Coverage struct {
	cells map[Cell]int
}

// NewCoverage returns an empty map.
func NewCoverage() *Coverage { return &Coverage{cells: map[Cell]int{}} }

// Add folds the cells in and reports how many were previously unseen.
func (c *Coverage) Add(cells []Cell) (fresh int) {
	for _, cell := range cells {
		if c.cells[cell] == 0 {
			fresh++
		}
		c.cells[cell]++
	}
	return fresh
}

// Size is the number of distinct cells covered.
func (c *Coverage) Size() int { return len(c.cells) }

// Has reports whether the cell has been covered.
func (c *Coverage) Has(cell Cell) bool { return c.cells[cell] > 0 }
