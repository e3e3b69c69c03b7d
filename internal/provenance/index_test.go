package provenance

// The detached index (history.Index, kept under this package's name for
// callers that attach one) is fed only through history.DB.Observe. These
// tests require it to answer exactly as the database it observes, whose
// own chaining is checked against the naive reference walkers in
// internal/history.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/flowgen"
	"repro/internal/history"
)

// diffWorld builds a populated synthetic world and an index observing
// its database (backfill path: the instances exist before Observe).
func diffWorld(t *testing.T, spec flowgen.Spec) (*flowgen.Bench, []history.ID, *Index) {
	t.Helper()
	g, err := flowgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex()
	b.DB.Observe(idx)
	return b, cells, idx
}

// assertSameChains requires the index and the database to agree exactly
// — root, node order, edge order, every field — in both directions.
func assertSameChains(t *testing.T, db *history.DB, idx *Index, root history.ID, depth int) {
	t.Helper()
	for _, dir := range []struct {
		name      string
		want, got func(history.ID, int) (*history.Derivation, error)
	}{
		{"backchain", db.Backchain, idx.Backchain},
		{"forwardchain", db.Forwardchain, idx.Forwardchain},
	} {
		want, err1 := dir.want(root, depth)
		got, err2 := dir.got(root, depth)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s %s: db err=%v, index err=%v", dir.name, root, err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s %s depth %d: derivations diverge\ndb:    %+v\nindex: %+v", dir.name, root, depth, want, got)
		}
	}
}

// TestIndexDifferentialSeeds: over 24 seeds across every generator
// shape, the Observe-fed index answers as the database does from roots
// sampled across the graph, bounded and unbounded.
func TestIndexDifferentialSeeds(t *testing.T) {
	shapes := flowgen.Shapes()
	for seed := int64(1); seed <= 24; seed++ {
		spec := flowgen.Spec{Cells: 40 + int(seed%5)*23, Shape: shapes[int(seed)%len(shapes)], Seed: seed}
		b, cells, idx := diffWorld(t, spec)
		for _, root := range []history.ID{cells[0], cells[len(cells)/2], cells[len(cells)-1], b.Tools[0]} {
			for _, depth := range []int{-1, 0, 1, 2, 5} {
				assertSameChains(t, b.DB, idx, root, depth)
			}
		}
	}
}

// TestIndexLiveCommits attaches the index to an empty database and
// records through it — the per-commit path rather than the Observe
// backfill.
func TestIndexLiveCommits(t *testing.T) {
	g, err := flowgen.Generate(flowgen.Spec{Cells: 50, Shape: flowgen.Diamond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, cells, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	db := history.NewDB(flowgen.Schema())
	idx := NewIndex()
	db.Observe(idx)
	remap := make(map[history.ID]history.ID)
	for _, in := range b.DB.All() {
		rec := history.Instance{Type: in.Type, User: in.User, Data: in.Data, Tool: remap[in.Tool]}
		for _, x := range in.Inputs {
			rec.Inputs = append(rec.Inputs, history.Input{Key: x.Key, Inst: remap[x.Inst]})
		}
		id, err := db.RecordID(rec)
		if err != nil {
			t.Fatal(err)
		}
		remap[in.ID] = id
	}
	for _, c := range []history.ID{remap[cells[0]], remap[cells[len(cells)-1]]} {
		assertSameChains(t, db, idx, c, -1)
	}
}

// TestIndexDuringEngineRun attaches the index before a real engine run,
// so the commits arrive through exec's commit path.
func TestIndexDuringEngineRun(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 40, Shape: flowgen.FanOutIn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex()
	b.DB.Observe(idx)
	res, err := exec.New(b.Schema, b.DB, b.Store, b.Reg).RunFlow(b.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Units == 0 {
		t.Fatal("engine ran no units")
	}
	for _, in := range b.DB.All() {
		assertSameChains(t, b.DB, idx, in.ID, -1)
	}
}

// TestIndexUnknownRoot pins the error for a root the index has never
// seen.
func TestIndexUnknownRoot(t *testing.T) {
	idx := NewIndex()
	if _, err := idx.Backchain("Nope:1", -1); err == nil || !strings.Contains(err.Error(), "no instance Nope:1") {
		t.Fatalf("backchain error = %v", err)
	}
	if _, err := idx.Forwardchain("Nope:1", -1); err == nil || !strings.Contains(err.Error(), "no instance Nope:1") {
		t.Fatalf("forwardchain error = %v", err)
	}
}

// TestIndexReobserveIdempotent checks that observing the same commit
// twice (as a second Observe backfill would) indexes it once: a second
// copy of any arc would show in the forward chains.
func TestIndexReobserveIdempotent(t *testing.T) {
	b, cells, idx := diffWorld(t, flowgen.Spec{Cells: 10, Shape: flowgen.Chain, Seed: 1})
	b.DB.Observe(idx) // replays everything again
	for _, root := range []history.ID{cells[0], b.Tools[0]} {
		assertSameChains(t, b.DB, idx, root, -1)
	}
}

// TestIndexMissingChildPanics pins the invariant violation: an index
// fed a commit whose inputs it never saw must fail loudly, not build a
// silently incomplete graph.
func TestIndexMissingChildPanics(t *testing.T) {
	idx := NewIndex()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic for unindexed child")
		}
	}()
	idx.OnCommit(&history.Instance{ID: "Cell:2", Type: "Cell", Tool: "GenTool:1"})
}
