package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/history"
	"repro/internal/provenance"
)

// flowdBin is a flowd built from the repository for the flowd
// workloads' self-tests.
var flowdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test")
	if err != nil {
		panic(err)
	}
	flowdBin = filepath.Join(dir, "flowd")
	if out, err := exec.Command("go", "build", "-o", flowdBin, "repro/cmd/flowd").CombinedOutput(); err != nil {
		panic("building flowd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTiny runs one workload at self-test size and returns its result
// line and the full output.
func runTiny(t *testing.T, workload string, traced bool) (resultLine, string) {
	t.Helper()
	tr := "0"
	if traced {
		tr = "1"
	}
	var out, errb bytes.Buffer
	code := run([]string{"-flowd", flowdBin, "-scratch", t.TempDir(), "-tiny",
		"-corpus", filepath.Join("..", "testdata", "scenarios"),
		"--workload", workload, "--seed", "3", "--seconds", "2", "--trace", tr}, &out, &errb)
	if code != 0 {
		t.Fatalf("%s trace=%v exited %d:\n%s", workload, traced, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return r, out.String()
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		decl []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.decl) != len(c.json) {
			t.Fatalf("%d metrics declared, %d in BENCHMARK.json", len(c.decl), len(c.json))
		}
		for i, d := range c.decl {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("metric %d: %s %s here, %s %s in BENCHMARK.json", i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark lacks", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny size, end to end
// and traced, and requires every declared metric with its unit, every
// check passed, and the seed in the output.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range []string{"bulk", "interactive", "history"} {
		for _, traced := range []bool{false, true} {
			r, out := runTiny(t, w, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !traced && ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, d.name, m.Value)
				}
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", w, traced, r.Correct, r.Failed, r.Attempted, out)
			}
			if !strings.Contains(out, "seed 3") {
				t.Errorf("%s: output does not record the seed", w)
			}
			if !traced {
				for wl, name := range map[string]string{"history": "retrace_p99_ms", "interactive": "max_rate_runs_per_s"} {
					if wl == w && !strings.Contains(out, name) {
						t.Errorf("%s: table lacks %s", w, name)
					}
				}
			}
		}
	}
}

// TestWrongExpectationFails submits a generated world whose expectation
// belongs to a different world: the outcome check must count a failure.
func TestWrongExpectationFails(t *testing.T) {
	e := &env{workers: 2, scratch: t.TempDir(), tiny: true}
	c, err := newComposition(e, newRecorder(false), e.scratch)
	if err != nil {
		t.Fatal(err)
	}
	right, err := generatedSubmission(flowgen.Spec{Cells: 16, Shape: flowgen.Chain, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := generatedSubmission(flowgen.Spec{Cells: 17, Shape: flowgen.Chain, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if err := c.submit(-1, "r-0001", right, false, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("correct expectation failed: %v", tl.failures)
	}
	wrong.body = right.body
	if err := c.submit(-1, "r-0002", wrong, false, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 || tl.attempted != 2 {
		t.Fatalf("wrong expectation: %d of %d failed, want 1 of 2", tl.failed, tl.attempted)
	}
}

// TestSelfTimesSumToWall: in a traced run, span self times plus the
// unattributed time equal the traced wall time, and the unattributed
// time is what the benchmark's own spans hold as their own.
func TestSelfTimesSumToWall(t *testing.T) {
	rec := newRecorder(true)
	rec.spans = []span{
		{name: "bench", parent: -1, depth: lvRoot, start: 0, end: 100},
		{name: "bench.replay", parent: 0, depth: lvPhase, start: 5, end: 98},
		{name: "bench.submit", parent: 1, depth: lvRun, start: 8, end: 92},
		{name: "exec.run", parent: 2, depth: lvCall, start: 10, end: 90},
		{name: "encap.tool", parent: 3, depth: lvUnit, start: 20, end: 50},
		{name: "encap.tool", parent: 3, depth: lvUnit, start: 30, end: 60}, // a second worker
		{name: "storage.wal_append", parent: 3, depth: lvStorage, start: 40, end: 95, async: true},
		{name: "exec.run", parent: 1, depth: lvCall, start: 95, end: 120}, // runs past the root
	}
	self := rec.selfTimes(0)
	want := map[int]int64{0: 5, 1: 6, 2: 4, 3: 40, 4: 10, 5: 30, 7: 5}
	var sum int64
	for id, ns := range self {
		sum += ns
		if want[id] != ns {
			t.Errorf("span %d self %d, want %d", id, ns, want[id])
		}
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	rep := newReport()
	layerReport(rep, rec, &layerTotals{root: 0})
	if got := rep.values["bench.unattributed_frac"]; got != 0.15 {
		t.Errorf("bench.unattributed_frac = %v, want the bench spans' 15 of 100", got)
	}

	// and on a real traced run
	_, out := runTiny(t, "history", true)
	if !strings.Contains(out, "bench.unattributed_frac") {
		t.Fatal("traced run reports no unattributed share")
	}
	e := &env{workers: 2, scratch: t.TempDir(), tiny: true, seconds: 1, workload: "bulk"}
	rec = newRecorder(true)
	x := &layerTotals{}
	x.root = rec.begin("bench", "", -1, lvRoot, false)
	in, err := bulkInputs(e, rand.New(rand.NewSource(1)), bulkRuns)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if _, err := replay(e, rec, e.scratch, []submission{in[0].sub}, 0, rand.New(rand.NewSource(1)), x, &tl); err != nil {
		t.Fatal(err)
	}
	rec.end(x.root)
	sum = 0
	for _, ns := range rec.selfTimes(x.root) {
		sum += ns
	}
	if root := rec.spans[x.root]; sum != root.end-root.start {
		t.Errorf("self times sum to %d ns, traced wall is %d ns", sum, root.end-root.start)
	}
	if tl.failed != 0 {
		t.Errorf("replay failures: %v", tl.failures)
	}
}

// TestCellNodeMatchesFlowgen pins the cell → flow node numbering the
// trace readers rely on.
func TestCellNodeMatchesFlowgen(t *testing.T) {
	b, err := flowgen.Build(flowgen.Spec{Cells: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range b.CellNodes {
		if int(n) != cellNode(i) {
			t.Fatalf("cell %d is node %d, cellNode says %d", i, n, cellNode(i))
		}
	}
}

// TestChainModelMatchesIndex checks the benchmark's reference answers
// against the provenance index on every shape.
func TestChainModelMatchesIndex(t *testing.T) {
	for _, shape := range flowgen.Shapes() {
		g, err := flowgen.Generate(flowgen.Spec{Cells: 300, Shape: shape, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, cells, err := g.Populate()
		if err != nil {
			t.Fatal(err)
		}
		idx := provenance.NewIndex()
		b.DB.Observe(idx)
		m := newChainModel(g)
		rng := rand.New(rand.NewSource(2))
		for range 200 {
			c := rng.Intn(len(cells))
			back := rng.Intn(2) == 0
			depth := queryDepths[rng.Intn(len(queryDepths))]
			var d *history.Derivation
			if back {
				d, err = idx.Backchain(cells[c], depth)
			} else {
				d, err = idx.Forwardchain(cells[c], depth)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := m.count(c, back, depth); len(d.Nodes) != want {
				t.Fatalf("%s cell %d back=%v depth %d: index %d nodes, model %d", shape, c, back, depth, len(d.Nodes), want)
			}
		}
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompare: a result set agrees with itself and not with a set
// whose latency is far worse.
func TestCompare(t *testing.T) {
	write := func(dir string, scale float64) {
		for seed := 1; seed <= 4; seed++ {
			line := resultLine{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				v := 10 + float64(seed)*0.1
				if d.name == "run_p50_ms" {
					v *= scale
				}
				line.Metrics[d.name] = metric{v, d.unit}
			}
			b, _ := json.Marshal(line)
			if err := os.WriteFile(filepath.Join(dir, "bulk-"+string(rune('0'+seed))+".txt"), append([]byte("table\n"), b...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, same, worse := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1)
	write(same, 1)
	write(worse, 2)
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if code := compareMain([]string{"-spec", spec, a, same}, &out, &out); code != 0 {
		t.Fatalf("identical sets disagree:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-spec", spec, a, worse}, &out, &out); code == 0 || !strings.Contains(out.String(), "B worse beyond bound") {
		t.Fatalf("a doubled run_p50_ms passed:\n%s", out.String())
	}
}
