package history_test

// Chaining benchmarks: the database's walkers against the naive
// reference (naive_test.go) on the same world, so
//
//	go test -run xxx -bench 'Backchain|Forwardchain' ./internal/history/
//
// reports the graph's speedup per query shape. "layered" is a
// 17k-cell layered world (34k instances) queried at depth 1 from
// roots spread across it and unbounded from its last cell; "deep" is an
// unbounded walk over a 100k-cell chain world (a 25k-node answer).

import (
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
)

type benchWorld struct {
	db    *history.DB
	ref   *naive
	cells []history.ID
}

var benchWorlds = map[flowgen.Shape]*benchWorld{}

func loadBenchWorld(b *testing.B, shape flowgen.Shape, cells int) *benchWorld {
	b.Helper()
	if w := benchWorlds[shape]; w != nil {
		return w
	}
	g, err := flowgen.Generate(flowgen.Spec{Cells: cells, Shape: shape, Seed: 1993})
	if err != nil {
		b.Fatal(err)
	}
	pop, ids, err := g.Populate()
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{db: pop.DB, ref: newNaive(pop.DB), cells: ids}
	benchWorlds[shape] = w
	return w
}

type chainFunc func(history.ID, int) (*history.Derivation, error)

// benchChain runs one query shape on both implementations. A positive
// stride cycles the root through the cells; stride 0 keeps root fixed.
func benchChain(b *testing.B, db, ref chainFunc, cells []history.ID, root, stride, depth int) {
	for _, impl := range []struct {
		name string
		f    chainFunc
	}{{"db", db}, {"naive", ref}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			r := root
			for i := 0; i < b.N; i++ {
				if _, err := impl.f(cells[r], depth); err != nil {
					b.Fatal(err)
				}
				if stride > 0 {
					r = (r + stride) % len(cells)
				}
			}
		})
	}
}

func BenchmarkBackchain(b *testing.B) {
	b.Run("layered/depth1", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Layered, 17_000)
		benchChain(b, w.db.Backchain, w.ref.Backchain, w.cells, 0, 97, 1)
	})
	b.Run("layered/unbounded", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Layered, 17_000)
		benchChain(b, w.db.Backchain, w.ref.Backchain, w.cells, len(w.cells)-1, 0, -1)
	})
	b.Run("deep", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Chain, 100_000)
		benchChain(b, w.db.Backchain, w.ref.Backchain, w.cells, len(w.cells)-1, 0, -1)
	})
}

func BenchmarkForwardchain(b *testing.B) {
	b.Run("layered/depth1", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Layered, 17_000)
		benchChain(b, w.db.Forwardchain, w.ref.Forwardchain, w.cells, 0, 97, 1)
	})
	b.Run("layered/unbounded", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Layered, 17_000)
		benchChain(b, w.db.Forwardchain, w.ref.Forwardchain, w.cells, 0, 0, -1)
	})
	b.Run("deep", func(b *testing.B) {
		w := loadBenchWorld(b, flowgen.Chain, 100_000)
		benchChain(b, w.db.Forwardchain, w.ref.Forwardchain, w.cells, 0, 0, -1)
	})
}
