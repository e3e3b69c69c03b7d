package history

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/schema"
)

// fakeClock returns a clock that advances one second per call, for
// deterministic creation-time ordering.
func fakeClock() func() time.Time {
	t0 := time.Date(1992, 10, 1, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

// fixture builds a history database over the Fig. 1 schema populated with
// the paper's running example:
//
//	layoutEd, extractor, netlistEd, sim, verifier, plotter, dmEd (tools)
//	l1 = layout (edited from scratch), l2 = edit(l1)
//	n1 = extract(l1), n2 = edit(n1)
//	dm = device models, st = stimuli
//	c1 = composite circuit (dm, n1)
//	p1 = simulate(c1, st), pp1 = plot(p1)
func fixture(t *testing.T) (*DB, map[string]ID) {
	t.Helper()
	db := NewDB(schema.Fig1())
	db.SetClock(fakeClock())
	ids := make(map[string]ID)
	rec := func(key string, in Instance) {
		t.Helper()
		stored, err := db.Record(in)
		if err != nil {
			t.Fatalf("record %s: %v", key, err)
		}
		ids[key] = stored.ID
	}

	rec("layoutEd", Instance{Type: "LayoutEditor", User: "jbb", Name: "magic"})
	rec("extractor", Instance{Type: "Extractor", User: "jbb", Name: "mextra"})
	rec("netlistEd", Instance{Type: "NetlistEditor", User: "jbb"})
	rec("sim", Instance{Type: "InstalledSimulator", User: "jbb", Name: "hspice"})
	rec("verifier", Instance{Type: "Verifier", User: "jbb"})
	rec("plotter", Instance{Type: "Plotter", User: "jbb"})
	rec("dmEd", Instance{Type: "DeviceModelEditor", User: "jbb"})

	rec("l1", Instance{Type: "EditedLayout", User: "sutton", Name: "adder layout",
		Tool: ids["layoutEd"]})
	rec("n1", Instance{Type: "ExtractedNetlist", User: "sutton", Name: "adder netlist",
		Tool: ids["extractor"], Inputs: []Input{{Key: "Layout", Inst: ids["l1"]}}})
	rec("dm", Instance{Type: "DeviceModels", User: "director", Name: "cmos models",
		Tool: ids["dmEd"]})
	rec("st", Instance{Type: "Stimuli", User: "sutton", Name: "exhaustive vectors"})
	rec("c1", Instance{Type: "Circuit", User: "sutton", Name: "adder circuit",
		Inputs: []Input{{Key: "DeviceModels", Inst: ids["dm"]}, {Key: "Netlist", Inst: ids["n1"]}}})
	rec("p1", Instance{Type: "Performance", User: "sutton", Name: "adder perf", Comment: "Low pass filter run",
		Tool: ids["sim"], Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}})
	rec("pp1", Instance{Type: "PerformancePlot", User: "sutton",
		Tool: ids["plotter"], Inputs: []Input{{Key: "Performance", Inst: ids["p1"]}}})

	rec("l2", Instance{Type: "EditedLayout", User: "sutton", Name: "adder layout v2",
		Tool: ids["layoutEd"], Inputs: []Input{{Key: "Layout", Inst: ids["l1"]}}})
	rec("n2", Instance{Type: "EditedNetlist", User: "sutton", Name: "hand-tuned netlist",
		Tool: ids["netlistEd"], Inputs: []Input{{Key: "Netlist", Inst: ids["n1"]}}})
	return db, ids
}

func TestRecordAssignsIDsAndTimes(t *testing.T) {
	db, ids := fixture(t)
	p := db.Get(ids["p1"])
	if p == nil {
		t.Fatal("p1 not found")
	}
	if !strings.HasPrefix(string(p.ID), "Performance:") {
		t.Errorf("ID = %s", p.ID)
	}
	if p.Created.IsZero() {
		t.Error("Created not set")
	}
	l1, n1 := db.Get(ids["l1"]), db.Get(ids["n1"])
	if !l1.Created.Before(n1.Created) {
		t.Error("clock should order creations")
	}
	if db.Len() != 16 {
		t.Errorf("Len = %d, want 16", db.Len())
	}
}

func TestRecordValidation(t *testing.T) {
	db, ids := fixture(t)
	cases := []struct {
		name string
		in   Instance
		want string
	}{
		{"unknown type", Instance{Type: "Nope"}, "unknown entity type"},
		{"abstract type", Instance{Type: "Netlist"}, "abstract"},
		{"missing tool", Instance{Type: "Performance",
			Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"requires a tool"},
		{"tool on composite", Instance{Type: "Circuit", Tool: ids["sim"],
			Inputs: []Input{{Key: "DeviceModels", Inst: ids["dm"]}, {Key: "Netlist", Inst: ids["n1"]}}},
			"takes no tool"},
		{"tool on primitive", Instance{Type: "Stimuli", Tool: ids["sim"]}, "takes no tool"},
		{"dangling tool", Instance{Type: "Performance", Tool: "Simulator:999",
			Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"does not exist"},
		{"wrong tool type", Instance{Type: "Performance", Tool: ids["plotter"],
			Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"does not satisfy fd"},
		{"unknown dep key", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Nope", Inst: ids["c1"]}, {Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"no data dependency"},
		{"fd key as input", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Simulator", Inst: ids["sim"]}, {Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"no data dependency"},
		{"duplicate input", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}, {Key: "Circuit", Inst: ids["c1"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"duplicate input"},
		{"dangling input", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Circuit", Inst: "Circuit:999"}, {Key: "Stimuli", Inst: ids["st"]}}},
			"does not exist"},
		{"ill-typed input", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Circuit", Inst: ids["st"]}, {Key: "Stimuli", Inst: ids["st"]}}},
			"does not satisfy dd"},
		{"missing required input", Instance{Type: "Performance", Tool: ids["sim"],
			Inputs: []Input{{Key: "Circuit", Inst: ids["c1"]}}},
			"missing required input"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := db.Record(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Record err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestOptionalDepMayBeOmitted(t *testing.T) {
	db, ids := fixture(t)
	// EditedNetlist's dd on Netlist is optional: both with and without
	// are legal.
	if _, err := db.Record(Instance{Type: "EditedNetlist", Tool: ids["netlistEd"]}); err != nil {
		t.Errorf("omitting optional dep: %v", err)
	}
	if _, err := db.Record(Instance{Type: "EditedNetlist", Tool: ids["netlistEd"],
		Inputs: []Input{{Key: "Netlist", Inst: ids["n1"]}}}); err != nil {
		t.Errorf("supplying optional dep: %v", err)
	}
}

func TestSubtypeSatisfiesDependency(t *testing.T) {
	db, ids := fixture(t)
	// Verification wants two Netlists; an ExtractedNetlist and an
	// EditedNetlist both qualify.
	_, err := db.Record(Instance{Type: "Verification", Tool: ids["verifier"],
		Inputs: []Input{
			{Key: "Netlist/reference", Inst: ids["n1"]},
			{Key: "Netlist/subject", Inst: ids["n2"]},
		}})
	if err != nil {
		t.Errorf("subtyped inputs: %v", err)
	}
}

func TestGetReturnsCopies(t *testing.T) {
	db, ids := fixture(t)
	a := db.Get(ids["p1"])
	a.Name = "mutated"
	a.Inputs[0].Inst = "X:1"
	b := db.Get(ids["p1"])
	if b.Name == "mutated" || b.Inputs[0].Inst == "X:1" {
		t.Error("Get returned a live reference")
	}
}

func TestAnnotate(t *testing.T) {
	db, ids := fixture(t)
	if err := db.Annotate(ids["p1"], "CMOS Full adder", "Oct 20 run"); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	in := db.Get(ids["p1"])
	if in.Name != "CMOS Full adder" || in.Comment != "Oct 20 run" {
		t.Errorf("annotation not applied: %+v", in)
	}
	if err := db.Annotate("Nope:1", "x", "y"); err == nil {
		t.Error("Annotate on missing instance should fail")
	}
}

func TestInstancesOfIncludesSubtypes(t *testing.T) {
	db, _ := fixture(t)
	netlists := db.InstancesOf("Netlist")
	if len(netlists) != 3 { // n1, n2, plus the one... fixture has n1 (extracted), n2 (edited)
		// fixture records exactly n1 and n2
		if len(netlists) != 2 {
			t.Fatalf("InstancesOf(Netlist) = %d", len(netlists))
		}
	}
	for i := 1; i < len(netlists); i++ {
		if netlists[i].Created.Before(netlists[i-1].Created) {
			t.Error("InstancesOf not sorted by creation time")
		}
	}
	if got := db.InstancesOf("ExtractedNetlist"); len(got) != 1 {
		t.Errorf("InstancesOf(ExtractedNetlist) = %d, want 1", len(got))
	}
	if got := db.InstancesOf("Verification"); got != nil {
		t.Errorf("InstancesOf(Verification) = %v, want none", got)
	}
}

func TestNewest(t *testing.T) {
	db, ids := fixture(t)
	if got := db.Newest("Layout"); got == nil || got.ID != ids["l2"] {
		t.Errorf("Newest(Layout) = %v, want %s", got, ids["l2"])
	}
	if db.Newest("Verification") != nil {
		t.Error("Newest of unpopulated type should be nil")
	}
}

func TestBackchainFig10(t *testing.T) {
	db, ids := fixture(t)
	// Fig. 10: browsing the history of a Performance reveals the
	// Simulator and Netlist (here via the Circuit composite) used.
	d, err := db.Backchain(ids["p1"], -1)
	if err != nil {
		t.Fatalf("Backchain: %v", err)
	}
	for _, want := range []string{"sim", "c1", "st", "dm", "n1", "l1", "extractor"} {
		if !d.Contains(ids[want]) {
			t.Errorf("backchain of p1 missing %s (%s)", want, ids[want])
		}
	}
	if d.Contains(ids["pp1"]) {
		t.Error("backchain must not contain dependents")
	}
	if d.Nodes[0] != ids["p1"] {
		t.Error("root should be first node")
	}
}

func TestBackchainDepthLimit(t *testing.T) {
	db, ids := fixture(t)
	d, err := db.Backchain(ids["p1"], 1)
	if err != nil {
		t.Fatalf("Backchain: %v", err)
	}
	if !d.Contains(ids["c1"]) || !d.Contains(ids["sim"]) || !d.Contains(ids["st"]) {
		t.Error("depth-1 backchain missing direct children")
	}
	if d.Contains(ids["n1"]) {
		t.Error("depth-1 backchain must not reach grandchildren")
	}
}

func TestBackchainErrors(t *testing.T) {
	db, _ := fixture(t)
	if _, err := db.Backchain("Nope:1", -1); err == nil {
		t.Error("Backchain on missing instance should fail")
	}
	if _, err := db.Forwardchain("Nope:1", -1); err == nil {
		t.Error("Forwardchain on missing instance should fail")
	}
}

func TestForwardchain(t *testing.T) {
	db, ids := fixture(t)
	d, err := db.Forwardchain(ids["l1"], -1)
	if err != nil {
		t.Fatalf("Forwardchain: %v", err)
	}
	// l1 feeds n1 (extraction) and l2 (edit); n1 feeds c1 and n2; c1
	// feeds p1; p1 feeds pp1.
	for _, want := range []string{"n1", "l2", "c1", "n2", "p1", "pp1"} {
		if !d.Contains(ids[want]) {
			t.Errorf("forwardchain of l1 missing %s", want)
		}
	}
	if d.Contains(ids["sim"]) {
		t.Error("forwardchain must not include unrelated tools")
	}
}

func TestForwardchainEdgeKinds(t *testing.T) {
	db, ids := fixture(t)
	d, err := db.Forwardchain(ids["sim"], 1)
	if err != nil {
		t.Fatalf("Forwardchain: %v", err)
	}
	foundTool := false
	for _, e := range d.Edges {
		if e.Parent == ids["p1"] && e.Child == ids["sim"] && e.Kind == EdgeTool {
			foundTool = true
		}
	}
	if !foundTool {
		t.Errorf("p1 should depend on sim via fd edge; edges = %v", d.Edges)
	}
}

func TestUsesOf(t *testing.T) {
	db, ids := fixture(t)
	// "find all of the circuit performances derived from a given netlist"
	perfs, err := db.UsesOf(ids["n1"], "Performance")
	if err != nil {
		t.Fatalf("UsesOf: %v", err)
	}
	if len(perfs) != 1 || perfs[0] != ids["p1"] {
		t.Errorf("UsesOf(n1, Performance) = %v, want [%s]", perfs, ids["p1"])
	}
	// Netlists derived from l1: the extraction n1 and its edit n2.
	nets, err := db.UsesOf(ids["l1"], "Netlist")
	if err != nil {
		t.Fatalf("UsesOf: %v", err)
	}
	if len(nets) != 2 {
		t.Errorf("UsesOf(l1, Netlist) = %v, want 2", nets)
	}
}

func TestDerivedWith(t *testing.T) {
	db, ids := fixture(t)
	// "was this simulation run on that netlist?" — netlists in p1's
	// derivation.
	nets, err := db.DerivedWith(ids["p1"], "Netlist")
	if err != nil {
		t.Fatalf("DerivedWith: %v", err)
	}
	if len(nets) != 1 || nets[0] != ids["n1"] {
		t.Errorf("DerivedWith(p1, Netlist) = %v", nets)
	}
	tools, err := db.DerivedWith(ids["p1"], "Simulator")
	if err != nil {
		t.Fatalf("DerivedWith: %v", err)
	}
	if len(tools) != 1 || tools[0] != ids["sim"] {
		t.Errorf("DerivedWith(p1, Simulator) = %v", tools)
	}
}

func TestDerivationRender(t *testing.T) {
	db, ids := fixture(t)
	d, _ := db.Backchain(ids["p1"], -1)
	out := d.Render(db)
	if !strings.Contains(out, string(ids["p1"])) || !strings.Contains(out, string(ids["n1"])) {
		t.Errorf("Render missing nodes:\n%s", out)
	}
	if !strings.Contains(out, "adder perf") {
		t.Errorf("Render should include instance names:\n%s", out)
	}
}

func TestEdgeAndKindStrings(t *testing.T) {
	if EdgeTool.String() != "fd" || EdgeInput.String() != "dd" {
		t.Error("EdgeKind strings wrong")
	}
	e := Edge{Parent: "A:1", Child: "B:2", Kind: EdgeInput, Key: "Netlist"}
	if got := e.String(); !strings.Contains(got, "dd[Netlist]") {
		t.Errorf("Edge.String = %q", got)
	}
	e.Kind = EdgeTool
	if got := e.String(); !strings.Contains(got, "-fd->") {
		t.Errorf("Edge.String = %q", got)
	}
}

func TestDirectDependents(t *testing.T) {
	db, ids := fixture(t)
	deps := db.DirectDependents(ids["n1"])
	want := map[ID]bool{ids["c1"]: true, ids["n2"]: true}
	if len(deps) != 2 {
		t.Fatalf("DirectDependents(n1) = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected dependent %s", d)
		}
	}
}

func TestConcurrentRecordAndQuery(t *testing.T) {
	db, ids := fixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Record(Instance{Type: "EditedNetlist", Tool: ids["netlistEd"],
					Inputs: []Input{{Key: "Netlist", Inst: ids["n1"]}}}); err != nil {
					t.Errorf("Record: %v", err)
					return
				}
				if _, err := db.Backchain(ids["p1"], -1); err != nil {
					t.Errorf("Backchain: %v", err)
					return
				}
				if _, err := db.Forwardchain(ids["n1"], -1); err != nil {
					t.Errorf("Forwardchain: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(db.InstancesOf("EditedNetlist")); got != 201 {
		t.Errorf("EditedNetlist count = %d, want 201", got)
	}
}
