package history_test

// The differential suite: DB.Backchain and DB.Forwardchain against the
// naive reference walkers (naive_test.go) — node order, edge order and
// every field — over generated worlds of every shape, built through
// every path that feeds the database's derivation graph: live commits,
// Restore, and a real engine run.

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/flowgen"
	"repro/internal/history"
)

var diffDepths = []int{-1, 0, 1, 2, 5}

// assertChainsMatch compares both chaining directions of db against the
// reference from every root at every depth in diffDepths.
func assertChainsMatch(t *testing.T, label string, db *history.DB, ref *naive, roots []history.ID) {
	t.Helper()
	for _, root := range roots {
		for _, depth := range diffDepths {
			got, err1 := db.Backchain(root, depth)
			want, err2 := ref.Backchain(root, depth)
			sameDerivation(t, label+" backchain", got, want, err1, err2)
			got, err1 = db.Forwardchain(root, depth)
			want, err2 = ref.Forwardchain(root, depth)
			sameDerivation(t, label+" forwardchain", got, want, err1, err2)
		}
	}
}

func sameDerivation(t *testing.T, label string, got, want *history.Derivation, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: db err=%v, reference err=%v", label, err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: derivations diverge\ndb:        %+v\nreference: %+v", label, got, want)
	}
}

// TestChainingDifferentialSeeds: 24 seeds spread across every generator
// shape, roots sampled across the graph (a tool and an unknown ID
// included), bounded and unbounded depths — first on the populated
// database, then on a copy restored from its dump.
func TestChainingDifferentialSeeds(t *testing.T) {
	shapes := flowgen.Shapes()
	for seed := int64(1); seed <= 24; seed++ {
		spec := flowgen.Spec{Cells: 40 + int(seed%5)*23, Shape: shapes[int(seed)%len(shapes)], Seed: seed}
		g, err := flowgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, cells, err := g.Populate()
		if err != nil {
			t.Fatal(err)
		}
		roots := []history.ID{cells[0], cells[len(cells)/2], cells[len(cells)-1], b.Tools[0], "Nope:1"}
		ref := newNaive(b.DB)
		assertChainsMatch(t, string(spec.Shape), b.DB, ref, roots)

		var dump bytes.Buffer
		if err := b.DB.DumpJSON(&dump); err != nil {
			t.Fatal(err)
		}
		restored := history.NewDB(b.DB.Schema())
		if err := restored.Restore(&dump); err != nil {
			t.Fatal(err)
		}
		assertChainsMatch(t, string(spec.Shape)+" restored", restored, ref, roots)
	}
}

// TestChainingLiveCommits re-records a generated derivation into an
// empty database and checks the chaining against a fresh reference
// after every tenth commit, so the graph is compared while it grows.
func TestChainingLiveCommits(t *testing.T) {
	g, err := flowgen.Generate(flowgen.Spec{Cells: 50, Shape: flowgen.Diamond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	db := history.NewDB(b.DB.Schema())
	var ids []history.ID
	remap := make(map[history.ID]history.ID)
	for i, in := range b.DB.All() {
		rec := history.Instance{Type: in.Type, User: in.User, Data: in.Data, Tool: remap[in.Tool]}
		for _, x := range in.Inputs {
			rec.Inputs = append(rec.Inputs, history.Input{Key: x.Key, Inst: remap[x.Inst]})
		}
		id, err := db.RecordID(rec)
		if err != nil {
			t.Fatal(err)
		}
		remap[in.ID] = id
		ids = append(ids, id)
		if i%10 == 9 {
			assertChainsMatch(t, "live", db, newNaive(db), []history.ID{ids[0], ids[len(ids)/2], id})
		}
	}
}

// TestChainingDuringEngineRun: the commits arrive through the engine's
// commit path; every instance of the finished run is a root.
func TestChainingDuringEngineRun(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 40, Shape: flowgen.FanOutIn, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.New(b.Schema, b.DB, b.Store, b.Reg).RunFlow(b.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Units == 0 {
		t.Fatal("engine ran no units")
	}
	var roots []history.ID
	for _, in := range b.DB.All() {
		roots = append(roots, in.ID)
	}
	assertChainsMatch(t, "engine", b.DB, newNaive(b.DB), roots)
}

// TestForwardchainSameInstanceTwoKeys: a dependent that uses one
// instance under two dependency keys contributes two forward arcs, each
// reporting its own key, and is listed once among the nodes.
func TestForwardchainSameInstanceTwoKeys(t *testing.T) {
	db := history.NewDB(flowgen.Schema())
	tool := db.MustRecord(history.Instance{Type: "GenTool"}).ID
	src := db.MustRecord(history.Instance{Type: "Cell", Tool: tool}).ID
	both := db.MustRecord(history.Instance{Type: "Cell", Tool: tool, Inputs: []history.Input{
		{Key: "Cell/in1", Inst: src}, {Key: "Cell/in2", Inst: src},
	}}).ID
	d, err := db.Forwardchain(src, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := &history.Derivation{Root: src, Nodes: []history.ID{src, both}, Edges: []history.Edge{
		{Parent: both, Child: src, Kind: history.EdgeInput, Key: "Cell/in1"},
		{Parent: both, Child: src, Kind: history.EdgeInput, Key: "Cell/in2"},
	}}
	sameDerivation(t, "forwardchain", d, want, err, nil)
	assertChainsMatch(t, "two keys", db, newNaive(db), []history.ID{tool, src, both})
	if deps := db.DirectDependents(src); !reflect.DeepEqual(deps, []history.ID{both, both}) {
		t.Fatalf("DirectDependents = %v, want one entry per arc", deps)
	}
}

// TestChainingCostTracksAnswer: a depth-1 backchain allocates for its
// answer only, so allocations and bytes per query are the same in a
// 10k-cell and a 100k-cell world.
func TestChainingCostTracksAnswer(t *testing.T) {
	cost := func(cells int) (allocs, bytes uint64) {
		g, err := flowgen.Generate(flowgen.Spec{Cells: cells, Shape: flowgen.Chain, Seed: 1993})
		if err != nil {
			t.Fatal(err)
		}
		b, ids, err := g.Populate()
		if err != nil {
			t.Fatal(err)
		}
		root := ids[len(ids)/2]
		const runs = 1000
		var before, after runtime.MemStats
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if _, err := b.DB.Backchain(root, 1); err != nil { // warm the scratch
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := b.DB.Backchain(root, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	a10, b10 := cost(10_000)
	a100, b100 := cost(100_000)
	if a10 != a100 || b10 != b100 {
		t.Fatalf("depth-1 backchain: %d allocs / %d B at 10k cells, %d allocs / %d B at 100k", a10, b10, a100, b100)
	}
}
