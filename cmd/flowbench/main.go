// Command flowbench regenerates every figure of the DAC'93 paper as a
// runnable scenario and prints the measurements EXPERIMENTS.md records.
// The paper's evaluation is qualitative (eleven figures, no tables);
// each section below reproduces one figure's content and, where the
// claim is quantitative in spirit ("parallel branches can be executed in
// parallel", "a compiled simulator is executed on different stimuli"),
// measures it.
//
// Usage:
//
//	flowbench            # all figures
//	flowbench fig6 fig11 # selected figures
//	flowbench -quick     # smoke subset (CI): fig1 fig6 sched chaos
//	flowbench -out BENCH_provenance.json provenance
//	                     # chaining + hash chain at scale, JSON measurements
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline/staticflow"
	"repro/internal/baseline/trace"
	"repro/internal/cad/cosmos"
	"repro/internal/cad/extract"
	"repro/internal/cad/layout"
	"repro/internal/cad/models"
	"repro/internal/cad/netlist"
	"repro/internal/cad/sim"
	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/flowgen"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/schema"
	"repro/internal/service"
	"repro/internal/storage"
	runtrace "repro/internal/trace"
)

// sections is the single registry of benchmark sections; everything
// else — name validation, the -quick subset — derives from it, so
// adding a section here is the whole job of adding a section.
var sections = []struct {
	name  string
	desc  string
	quick bool // part of the -quick smoke subset (CI)
	run   func()
}{
	{"fig1", "the example task schema", true, fig1},
	{"fig2", "a tool created during design (compiled simulator)", false, fig2},
	{"fig3", "three representations of one flow", false, fig3},
	{"fig4", "expansions of a flow, with specialization", false, fig4},
	{"fig5", "complex flow: reuse, multiple outputs", false, fig5},
	{"fig6", "parallel execution of disjoint branches", true, fig6},
	{"sched", "dataflow scheduler vs level-barrier baseline", true, schedSection},
	{"fig7", "three views of an inverter cell", false, fig7},
	{"fig8", "view synthesis and verification flows", false, fig8},
	{"fig9", "browser filters over the design history", false, fig9},
	{"fig10", "backward chaining through the history", false, fig10},
	{"fig11", "version tree vs flow trace", false, fig11},
	{"retrace", "consistency maintenance by automatic retracing", false, retraceSection},
	{"chaos", "fault injection: retries, degradation, timeouts", true, chaosSection},
	{"trace", "run tracing: determinism, metrics, overhead", true, traceSection},
	{"memo", "incremental re-execution via the derivation-keyed cache", true, memoSection},
	{"approaches", "the four design approaches", false, approachesSection},
	{"baselines", "dynamic flows vs static flows vs traces", false, baselinesSection},
	{"corpus", "the scenario corpus submitted to a live service over HTTP", false, corpusSection},
	{"provenance", "chaining + hash chain over a million-instance history", false, provenanceSection},
	{"scale", "synthetic 10k–100k-node flows: plan and dispatch throughput", false, scaleSection},
	{"durable", "WAL-backed runs: write-ahead overhead and crash recovery", false, durableSection},
}

// benchOut, when set with -out <file>, makes the measuring sections
// (provenance, scale, durable) write their measurements as JSON
// (BENCH_provenance.json, BENCH_scale.json, BENCH_durable.json).
var benchOut string

// scaleCells, set with -scale-cells <n>, sizes the scale section's
// primary graph (default 10000 cells = 20000 flow nodes).
var scaleCells = 10000

// cpuProfile / memProfile, set with -cpuprofile/-memprofile <file>,
// capture pprof profiles over the selected sections.
var cpuProfile, memProfile string

func main() {
	valid := map[string]bool{}
	for _, s := range sections {
		valid[s.name] = true
	}
	want := map[string]bool{}
	quick := false
	args := os.Args[1:]
	needValue := func(i int, name string) string {
		if i+1 >= len(args) {
			fmt.Fprintf(os.Stderr, "flowbench: %s requires a value\n", name)
			os.Exit(2)
		}
		return args[i+1]
	}
	for i := 0; i < len(args); i++ {
		switch a := args[i]; strings.TrimPrefix(a, "-") {
		case "quick":
			quick = true
		case "out":
			benchOut = needValue(i, a)
			i++
		case "scale-cells":
			n, err := strconv.Atoi(needValue(i, a))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "flowbench: -scale-cells: bad count %q\n", args[i+1])
				os.Exit(2)
			}
			scaleCells = n
			i++
		case "cpuprofile":
			cpuProfile = needValue(i, a)
			i++
		case "memprofile":
			memProfile = needValue(i, a)
			i++
		default:
			if !valid[a] {
				fmt.Fprintf(os.Stderr, "flowbench: unknown section or flag %q; sections are: %s\n",
					a, strings.Join(sectionNames(), " "))
				os.Exit(2)
			}
			want[a] = true
		}
	}
	if quick {
		for _, s := range sections {
			if s.quick {
				want[s.name] = true
			}
		}
	}
	if cpuProfile != "" {
		f := must1(os.Create(cpuProfile))
		must(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			must(f.Close())
		}()
	}
	for _, s := range sections {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", s.name, s.desc)
		s.run()
		fmt.Println()
	}
	if memProfile != "" {
		f := must1(os.Create(memProfile))
		runtime.GC()
		must(pprof.WriteHeapProfile(f))
		must(f.Close())
	}
}

func sectionNames() []string {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	return names
}

// session returns a bootstrapped session.
func session() *hercules.Session {
	s := hercules.NewSession("flowbench")
	if err := s.Bootstrap(); err != nil {
		panic(err)
	}
	return s
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

// ---- fig 1 -----------------------------------------------------------------

func fig1() {
	s := schema.Fig1()
	fmt.Printf("entity types: %d (%d tools, %d data)\n", s.Len(), count(s, schema.KindTool), count(s, schema.KindData))
	fds, dds, opts := 0, 0, 0
	for _, t := range s.Types() {
		if t.FuncDep != nil {
			fds++
		}
		for _, d := range t.DataDeps {
			dds++
			if d.Optional {
				opts++
			}
		}
	}
	fmt.Printf("dependencies: %d functional, %d data (%d optional, breaking loops)\n", fds, dds, opts)
	fmt.Printf("Netlist construction methods (subtypes): %v\n", s.Subtypes("Netlist"))
	fmt.Printf("composite entities: Circuit -> %v\n", depNames(s.Type("Circuit")))
	fmt.Printf("validation: %v\n", errString(s.Validate()))
}

func count(s *schema.Schema, k schema.Kind) int {
	n := 0
	for _, t := range s.Types() {
		if t.Kind == k {
			n++
		}
	}
	return n
}

func depNames(t *schema.EntityType) []string {
	var out []string
	for _, d := range t.DataDeps {
		out = append(out, d.Key())
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// ---- fig 2 -----------------------------------------------------------------

func fig2() {
	// Compare interpreted (event-driven) against compiled simulation of
	// the same circuit over growing vector counts; report the crossover
	// where compilation pays for itself.
	nl := netlist.RippleAdder(8)
	lib := models.Default()
	ins := nl.Inputs()

	mkStim := func(n int) *sim.Stimuli {
		st := sim.NewStimuli("bench", 100000000, ins...)
		for v := 0; v < n; v++ {
			bits := make([]bool, len(ins))
			for i := range bits {
				bits[i] = (v>>uint(i%8))&1 == 1
			}
			st.Vectors = append(st.Vectors, bits)
		}
		return st
	}

	compileStart := time.Now()
	prog := must1(cosmos.Compile(nl))
	compileCost := time.Since(compileStart)
	fmt.Printf("circuit: %s (%d gates); compile cost: %v, program %d steps\n",
		nl.Name, len(nl.Gates), compileCost, prog.Steps())
	fmt.Printf("%8s %14s %14s %10s\n", "vectors", "event-driven", "compiled+comp", "winner")
	for _, n := range []int{1, 4, 16, 64, 256, 1024} {
		st := mkStim(n)
		t0 := time.Now()
		sm := must1(sim.New(nl, lib))
		_, err := sm.Run(st)
		must(err)
		ev := time.Since(t0)
		t1 := time.Now()
		p := must1(cosmos.Compile(nl))
		_, err = p.RunVectors(st)
		must(err)
		comp := time.Since(t1)
		winner := "compiled"
		if ev < comp {
			winner = "event-driven"
		}
		fmt.Printf("%8d %14v %14v %10s\n", n, ev, comp, winner)
	}
	// The full COSMOS scenario: compile the *extracted transistor*
	// netlist of a layout (switch-level compilation) and check it
	// computes the same function.
	small := netlist.FullAdder()
	lay := must1(layout.Generate(small, nil))
	ext := must1(extract.Extract(lay))
	xprog := must1(cosmos.Compile(ext.Netlist))
	agree := true
	for v := 0; v < 8; v++ {
		in := map[string]bool{"a": v&1 != 0, "b": v&2 != 0, "cin": v&4 != 0}
		got := must1(xprog.Run(in))
		want := must1(sim.Evaluate(small, in))
		for _, o := range small.Outputs() {
			if got[o] != want[o] {
				agree = false
			}
		}
	}
	fmt.Printf("switch-level compile of the extracted %s: %d steps, matches gate level: %v\n",
		ext.Netlist.Name, xprog.Steps(), agree)
}

// ---- fig 3 -----------------------------------------------------------------

func fig3() {
	// The placement flow of Fig. 3 over our schema, rendered three ways.
	s := session()
	f := s.NewFlow()
	lay := f.MustAdd("PlacedLayout")
	must(f.ExpandDown(lay, false))
	netN, _ := f.Node(lay).Dep("Netlist")
	must(f.Specialize(netN, "EditedNetlist"))
	must(f.ExpandDown(netN, false))
	fmt.Println("task graph (the paper's chosen representation):")
	fmt.Print(indent(f.Render()))
	fmt.Println("traditional bipartite flow diagram:")
	for _, a := range must1(f.Bipartite()) {
		fmt.Printf("  %s\n", a)
	}
	fmt.Println("functional form (footnote 2):")
	fmt.Printf("  %s\n", f.LispForm())
}

// ---- fig 4 -----------------------------------------------------------------

func fig4() {
	s := session()
	f := s.NewFlow()
	perf := f.MustAdd("Performance")
	must(f.ExpandDown(perf, false))
	fmt.Println("flow after one expansion of the goal:")
	fmt.Print(indent(f.Render()))

	// Expansion (a): expand the circuit composite.
	fa := f.Clone()
	cct := childByKey(fa, rootOf(fa), "Circuit")
	must(fa.ExpandDown(cct, false))
	fmt.Println("expansion (a): the circuit's components:")
	fmt.Print(indent(fa.Render()))

	// Expansion (b): specialize the netlist to Extracted first (as in
	// the paper), then expand.
	fb := fa.Clone()
	cctB := childByKey(fb, rootOf(fb), "Circuit")
	netB := childByKey(fb, cctB, "Netlist")
	must(fb.Specialize(netB, "ExtractedNetlist"))
	must(fb.ExpandDown(netB, false))
	fmt.Println("expansion (b): netlist specialized to ExtractedNetlist, then expanded:")
	fmt.Print(indent(fb.Render()))
}

func rootOf(f *flow.Flow) flow.NodeID { return f.Roots()[0] }

func childByKey(f *flow.Flow, id flow.NodeID, key string) flow.NodeID {
	c, ok := f.Node(id).Dep(key)
	if !ok {
		panic("missing dep " + key)
	}
	return c
}

// ---- fig 5 -----------------------------------------------------------------

func fig5() {
	s := session()
	f := s.NewFlow()
	// Extraction with two outputs, netlist reused by verification and by
	// a circuit that is simulated and plotted.
	net := f.MustAdd("ExtractedNetlist")
	must(f.ExpandDown(net, false))
	extrN, _ := f.Node(net).Dep("fd")
	layN, _ := f.Node(net).Dep("Layout")
	must(f.Specialize(layN, "EditedLayout"))
	must(f.ExpandDown(layN, false))
	layToolN, _ := f.Node(layN).Dep("fd")
	stats := f.MustAdd("ExtractionStatistics")
	must(f.Connect(stats, "fd", extrN))
	must(f.Connect(stats, "Layout", layN))
	ver := must1(f.ExpandUp(net, "Verification", "Netlist/subject"))
	must(f.Connect(ver, "Netlist/reference", net)) // self-check against itself
	must(f.ExpandDown(ver, false))
	verToolN, _ := f.Node(ver).Dep("fd")
	cct := f.MustAdd("Circuit")
	must(f.Connect(cct, "Netlist", net))
	dm := f.MustAdd("DeviceModels")
	must(f.ExpandDown(dm, false))
	dmToolN, _ := f.Node(dm).Dep("fd")
	must(f.Connect(cct, "DeviceModels", dm))
	perf := must1(f.ExpandUp(cct, "Performance", "Circuit"))
	must(f.ExpandDown(perf, false))
	simN, _ := f.Node(perf).Dep("fd")
	stimN, _ := f.Node(perf).Dep("Stimuli")
	plotN := must1(f.ExpandUp(perf, "PerformancePlot", "Performance"))
	must(f.ExpandDown(plotN, false))
	plotterN, _ := f.Node(plotN).Dep("fd")

	must(f.Bind(extrN, s.Must("extractor")))
	must(f.Bind(layToolN, s.Must("layEd.fulladder")))
	must(f.Bind(verToolN, s.Must("verifier")))
	must(f.Bind(dmToolN, s.Must("dmEd.default")))
	must(f.Bind(simN, s.Must("sim")))
	must(f.Bind(stimN, s.Must("stim.exhaustive3")))
	must(f.Bind(plotterN, s.Must("plotter")))

	fmt.Printf("flow: %d nodes, %d roots (multiple outputs), netlist reused by %d consumers\n",
		f.Len(), len(f.Roots()), len(f.Parents(net)))
	res := must1(s.Run(f))
	fmt.Printf("executed %d tool runs; extraction shared between netlist and statistics\n", res.TasksRun)
	entities := 0
	for range res.Created {
		entities++
	}
	fmt.Printf("flow nodes realized: %d\n", entities)
}

// ---- fig 6 -----------------------------------------------------------------

func fig6() {
	s := session()
	build := func() *flow.Flow {
		f := s.NewFlow()
		for i := 0; i < 8; i++ {
			n := f.MustAdd("EditedNetlist")
			must(f.ExpandDown(n, false))
			tn, _ := f.Node(n).Dep("fd")
			must(f.Bind(tn, s.Must("netEd.fulladder")))
		}
		return f
	}
	const delay = 10 * time.Millisecond
	s.Engine.SetTaskDelay(delay)
	defer s.Engine.SetTaskDelay(0)
	fmt.Printf("8 disjoint branches, %v simulated tool-dispatch latency each\n", delay)
	fmt.Printf("%9s %12s %9s %10s\n", "machines", "elapsed", "speedup", "occupancy")
	var base time.Duration
	var last *exec.Stats
	for _, w := range []int{1, 2, 4, 8} {
		s.Engine.SetWorkers(w)
		res := must1(s.Run(build()))
		if w == 1 {
			base = res.Elapsed
		}
		fmt.Printf("%9d %12v %8.1fx %9.0f%%\n", w, res.Elapsed.Round(time.Millisecond),
			float64(base)/float64(res.Elapsed), res.Stats.Occupancy*100)
		last = res.Stats
	}
	fmt.Println("last run (8 machines):")
	fmt.Println(indent(last.Summary()))
	s.Engine.SetWorkers(1)
}

// ---- scheduler: dataflow vs level barrier -----------------------------------

func schedSection() {
	const depth = 6
	const workers = 4
	slow, fast := 20*time.Millisecond, time.Millisecond
	fmt.Printf("two chains of %d tasks, slow/fast latencies interleaved per level (%v / %v), %d machines\n",
		depth, slow, fast, workers)
	fmt.Printf("level-barrier lower bound (sum of level maxima): %v; dataflow ideal (max branch): %v\n",
		time.Duration(depth)*slow, time.Duration(depth/2)*(slow+fast))
	run := func(sched exec.Scheduler) (*hercules.Session, *exec.Result) {
		s := session()
		s.SetWorkers(workers)
		s.SetScheduler(sched)
		f := s.NewFlow()
		delays := make(map[flow.NodeID]time.Duration)
		for c := 0; c < 2; c++ {
			base := f.MustAdd("EditedNetlist")
			must(f.ExpandDown(base, false))
			tn, _ := f.Node(base).Dep("fd")
			must(f.Bind(tn, s.Must("netEd.fulladder")))
			prev := base
			for d := 0; d < depth; d++ {
				if (d+c)%2 == 0 {
					delays[prev] = slow
				} else {
					delays[prev] = fast
				}
				if d == depth-1 {
					break
				}
				next := must1(f.ExpandUp(prev, "EditedNetlist", "Netlist"))
				must(f.ExpandDown(next, false))
				tn, _ := f.Node(next).Dep("fd")
				must(f.Bind(tn, s.Must("netEd.retouch")))
				prev = next
			}
		}
		s.Engine.SetTaskDelayFunc(func(n flow.NodeID, goal string) time.Duration {
			return delays[n]
		})
		return s, must1(s.Run(f))
	}
	sBar, resBar := run(exec.Barrier)
	sDat, resDat := run(exec.Dataflow)
	for _, r := range []*exec.Result{resBar, resDat} {
		fmt.Printf("%s:\n%s\n", r.Stats.Scheduler, indent(r.Stats.Summary()))
	}
	fmt.Printf("dataflow speedup over barrier: %.2fx\n",
		float64(resBar.Stats.Elapsed)/float64(resDat.Stats.Elapsed))
	// Determinism: both schedulers committed identical instance IDs.
	a, b := sBar.DB.All(), sDat.DB.All()
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].ID == b[i].ID && a[i].Tool == b[i].Tool
	}
	fmt.Printf("identical instance IDs and derivations across schedulers: %v\n", same)
}

// ---- fig 7 -----------------------------------------------------------------

func fig7() {
	inv := netlist.Inverter()
	fmt.Println("logic view:")
	fmt.Print(indent(netlist.Format(inv)))
	x := must1(netlist.ToTransistor(inv))
	fmt.Println("transistor view:")
	fmt.Print(indent(netlist.Format(x)))
	fmt.Println("physical view (excerpt):")
	s := session()
	f := s.NewFlow()
	layN := f.MustAdd("EditedLayout")
	must(f.ExpandDown(layN, false))
	tn, _ := f.Node(layN).Dep("fd")
	invTool := must1(s.Import("LayoutEditor", "inverter gen", "generate inverter"))
	must(f.Bind(tn, invTool))
	res := must1(s.Run(f))
	lay := must1(res.One(layN))
	text := must1(s.ArtifactText(lay))
	fmt.Print(indent(firstLines(text, 8)))
	fmt.Printf("  ... (%d lines total)\n", strings.Count(text, "\n"))
}

// ---- fig 8 -----------------------------------------------------------------

func fig8() {
	s := session()
	// Netlist first.
	f := s.NewFlow()
	netN := f.MustAdd("EditedNetlist")
	must(f.ExpandDown(netN, false))
	tn, _ := f.Node(netN).Dep("fd")
	must(f.Bind(tn, s.Must("netEd.fulladder")))
	netInst := must1(must1(s.Run(f)).One(netN))

	// Synthesis flow.
	f2 := s.NewFlow()
	lay := f2.MustAdd("PlacedLayout")
	must(f2.ExpandDown(lay, false))
	placerN, _ := f2.Node(lay).Dep("fd")
	net2, _ := f2.Node(lay).Dep("Netlist")
	opts, _ := f2.Node(lay).Dep("PlacementOptions")
	must(f2.Bind(net2, netInst))
	must(f2.Bind(placerN, s.Must("placer")))
	must(f2.Bind(opts, s.Must("popts.default")))
	t0 := time.Now()
	layInst := must1(must1(s.Run(f2)).One(lay))
	fmt.Printf("synthesis (Fig. 8a): %s in %v\n", layInst, time.Since(t0).Round(time.Millisecond))

	// Verification flow.
	f3 := s.NewFlow()
	layB := f3.MustAdd("Layout")
	must(f3.Bind(layB, layInst))
	xnet := must1(f3.ExpandUp(layB, "ExtractedNetlist", "Layout"))
	must(f3.ExpandDown(xnet, false))
	extrN, _ := f3.Node(xnet).Dep("fd")
	ver := must1(f3.ExpandUp(xnet, "Verification", "Netlist/subject"))
	// Connecting the layout as the reference netlist is refused — the
	// schema's typing at work.
	fmt.Printf("  ill-typed connect refused: %v\n", f3.Connect(ver, "Netlist/reference", layB))
	must(f3.ExpandDown(ver, false))
	refN, _ := f3.Node(ver).Dep("Netlist/reference")
	must(f3.Bind(refN, netInst))
	verToolN, _ := f3.Node(ver).Dep("fd")
	must(f3.Bind(extrN, s.Must("extractor")))
	must(f3.Bind(verToolN, s.Must("verifier")))
	t1 := time.Now()
	vid := must1(must1(s.Run(f3)).One(ver))
	text := must1(s.ArtifactText(vid))
	fmt.Printf("verification (Fig. 8b) in %v: %s", time.Since(t1).Round(time.Millisecond), text)
}

// ---- fig 9 -----------------------------------------------------------------

func fig9() {
	s := session()
	// Populate the history with simulations from three users.
	users := []string{"jbb", "director", "sutton"}
	for i, u := range users {
		s.Engine.SetUser(u)
		f := must1(s.Catalogs.StartFromPlan("simulate-netlist"))
		bindLeaf(s, f, "Simulator", "sim")
		bindLeaf(s, f, "Stimuli", "stim.exhaustive3")
		bindLeaf(s, f, "NetlistEditor", "netEd.fulladder")
		bindLeaf(s, f, "DeviceModelEditor", "dmEd.default")
		res := must1(s.Run(f))
		for _, root := range f.Roots() {
			for _, id := range res.Created[root] {
				if s.DB.Get(id).Type == "Performance" {
					names := []string{"Low pass filter", "CMOS Full adder", "Operational Amplifier"}
					must(s.Annotate(id, names[i], "run by "+u))
				}
			}
		}
	}
	fmt.Printf("history holds %d instances\n", s.DB.Len())
	queries := []struct {
		desc   string
		filter history.Filter
	}{
		{"user jbb", history.Filter{User: "jbb"}},
		{"type Netlist (subtypes included)", history.Filter{Type: "Netlist"}},
		{"keyword 'adder'", history.Filter{Keyword: "adder"}},
		{"type Performance + user sutton", history.Filter{Type: "Performance", User: "sutton"}},
	}
	for _, q := range queries {
		t0 := time.Now()
		got := s.Browse(q.filter)
		fmt.Printf("  browse %-36s -> %2d instance(s) in %v\n", q.desc, len(got), time.Since(t0))
	}
}

func bindLeaf(s *hercules.Session, f *flow.Flow, typeName, key string) {
	for _, id := range f.Leaves() {
		if f.Node(id).Type == typeName && !f.Node(id).IsBound() {
			must(f.Bind(id, s.Must(key)))
			return
		}
	}
	panic("no unbound leaf of type " + typeName)
}

// ---- fig 10 ----------------------------------------------------------------

func fig10() {
	s := session()
	// Build an edit chain of growing depth; measure backchain latency.
	f := s.NewFlow()
	n := f.MustAdd("EditedNetlist")
	must(f.ExpandDown(n, false))
	tn, _ := f.Node(n).Dep("fd")
	must(f.Bind(tn, s.Must("netEd.fulladder")))
	cur := must1(must1(s.Run(f)).One(n))
	fmt.Printf("%12s %12s %12s\n", "chain depth", "nodes found", "query time")
	for _, depth := range []int{1, 8, 64, 256} {
		for chainLen(s, cur) < depth {
			cur = s2edit(s, cur)
		}
		t0 := time.Now()
		d := must1(s.DB.Backchain(cur, -1))
		fmt.Printf("%12d %12d %12v\n", depth, len(d.Nodes), time.Since(t0))
	}
	// The Fig. 10 rendering itself.
	shallow := must1(s.DB.Backchain(cur, 1))
	fmt.Println("History pop-up (depth 1), as in Fig. 10:")
	fmt.Print(indent(shallow.Render(s.DB)))
}

func s2edit(s *hercules.Session, base history.ID) history.ID {
	f := s.NewFlow()
	n := f.MustAdd("EditedNetlist")
	must(f.ExpandDown(n, false))
	must(f.ExpandOptional(n, "Netlist"))
	tn, _ := f.Node(n).Dep("fd")
	bn, _ := f.Node(n).Dep("Netlist")
	must(f.Bind(tn, s.Must("netEd.retouch")))
	must(f.Bind(bn, base))
	return must1(must1(s.Run(f)).One(n))
}

// chainLen computes the version-chain length of an instance.
func chainLen(s *hercules.Session, id history.ID) int {
	d := must1(s.DB.Backchain(id, -1))
	n := 0
	for _, x := range d.Nodes {
		if strings.HasPrefix(string(x), "EditedNetlist") {
			n++
		}
	}
	return n
}

// ---- fig 11 ----------------------------------------------------------------

func fig11() {
	s := session()
	f := s.NewFlow()
	n := f.MustAdd("EditedNetlist")
	must(f.ExpandDown(n, false))
	tn, _ := f.Node(n).Dep("fd")
	must(f.Bind(tn, s.Must("netEd.fulladder")))
	c1 := must1(must1(s.Run(f)).One(n))
	c2 := s2edit(s, c1)
	c3 := s2edit(s, c2)
	c4 := s2edit(s, c1)
	c5 := s2edit(s, c4)
	fmt.Printf("two branches from %s: leaf %s (chain %d) and leaf %s (chain %d)\n",
		c1, c3, chainLen(s, c3), c5, chainLen(s, c5))
	fmt.Println("classic version tree (Fig. 11a):")
	fmt.Print(indent(must1(s.VersionTree(c1))))
	fmt.Println("flow trace (Fig. 11b) — same data, plus the tools used:")
	fmt.Print(indent(must1(s.FlowTrace(c1))))
	fmt.Println("query capability:")
	fmt.Println("  'what versions exist?'           -> both answer")
	trace := must1(s.DB.FlowTrace(c4))
	var tool history.ID
	var find func(tn2 *history.TraceNode)
	find = func(tn2 *history.TraceNode) {
		if tn2.Inst == c4 {
			tool = tn2.Tool
		}
		for _, c := range tn2.Children {
			find(c)
		}
	}
	find(trace)
	fmt.Printf("  'which tool created version c4?' -> only the flow trace: %s\n", tool)
	// Storage: both are views over the same derivation records — zero
	// extra storage for versioning (the paper's point).
	fmt.Printf("storage: versioning adds 0 bytes; it reuses %d derivation records\n", s.DB.Len())
}

// ---- retrace ----------------------------------------------------------------

func retraceSection() {
	s := session()
	f := must1(s.Catalogs.StartFromPlan("simulate-netlist"))
	bindLeaf(s, f, "Simulator", "sim")
	bindLeaf(s, f, "Stimuli", "stim.exhaustive3")
	bindLeaf(s, f, "NetlistEditor", "netEd.fulladder")
	bindLeaf(s, f, "DeviceModelEditor", "dmEd.default")
	res := must1(s.Run(f))
	var perf history.ID
	for _, root := range f.Roots() {
		for _, id := range res.Created[root] {
			if s.DB.Get(id).Type == "Performance" {
				perf = id
			}
		}
	}
	net := s.DB.InstancesOf("EditedNetlist")[0].ID
	s2edit(s, net)
	fmt.Printf("after editing the netlist, performance stale: %v\n", must1(s.OutOfDate(perf)))
	t0 := time.Now()
	rr := must1(s.Retrace(perf))
	fmt.Printf("retrace: %d construction(s) re-run in %v\n", len(rr.Rebuilt), time.Since(t0).Round(time.Millisecond))
	fmt.Printf("plan was:\n%s\n", indent(rr.Plan.String()))
	fmt.Printf("new target %s stale: %v\n", rr.NewTarget(perf), must1(s.OutOfDate(rr.NewTarget(perf))))
}

// ---- chaos ----------------------------------------------------------------

// chaosSection measures the fault-tolerance layer against the seeded
// injector (internal/faults): transient faults absorbed by retries with
// full-jitter backoff, graceful degradation committing every branch a
// failure cannot reach, and a hung tool cut off by the task timeout.
func chaosSection() {
	const branches = 8
	branchFlow := func(s *hercules.Session) *flow.Flow {
		f := s.NewFlow()
		// Alternate generators so the branches are distinct injection
		// sites (identical requests share a site and hence a fate).
		gens := []string{"netEd.fulladder", "netEd.ripple4"}
		for i := 0; i < branches; i++ {
			n := f.MustAdd("EditedNetlist")
			must(f.ExpandDown(n, false))
			tn, _ := f.Node(n).Dep("fd")
			must(f.Bind(tn, s.Must(gens[i%len(gens)])))
		}
		return f
	}

	// Transient faults + retry: every tool site fails twice; retries
	// absorb the faults and the run commits everything.
	s1 := session()
	inj := faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 2})
	inj.Instrument(s1.Registry)
	s1.SetRetryPolicy(exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 7})
	t0 := time.Now()
	res := must1(s1.Run(branchFlow(s1)))
	fmt.Printf("transient: %d/%d tasks committed after %d retries in %v (%d transient faults injected)\n",
		res.TasksRun, branches, res.Stats.Retries,
		time.Since(t0).Round(time.Millisecond), inj.Counters().Transients)

	// Graceful degradation: a poisoned layout editor kills one producer
	// chain; under ContinueOnError the independent branches still commit
	// and the aggregate error names the root cause and the skipped node.
	s2 := session()
	inj2 := faults.New(1993, faults.Config{})
	inj2.SetToolConfig("LayoutEditor", faults.Config{PermanentRate: 1})
	inj2.Instrument(s2.Registry)
	s2.SetFailurePolicy(exec.ContinueOnError)
	f2 := branchFlow(s2)
	net := f2.MustAdd("ExtractedNetlist")
	must(f2.ExpandDown(net, false))
	extrN, _ := f2.Node(net).Dep("fd")
	layN, _ := f2.Node(net).Dep("Layout")
	must(f2.Specialize(layN, "EditedLayout"))
	must(f2.ExpandDown(layN, false))
	ltn, _ := f2.Node(layN).Dep("fd")
	must(f2.Bind(extrN, s2.Must("extractor")))
	must(f2.Bind(ltn, s2.Must("layEd.fulladder")))
	res2, err2 := s2.Run(f2)
	fmt.Printf("degraded : %d/%d tasks committed under %s, %d failed, %d skipped\n",
		res2.TasksRun, branches+2, exec.ContinueOnError,
		res2.Stats.UnitsFailed, res2.Stats.JobsSkipped)
	fmt.Printf("           error lines (root cause + each skipped node): %d\n",
		len(strings.Split(err2.Error(), "\n")))

	// Hung tool + timeout: an hour-long hang is cut off by the 50ms
	// per-task deadline; the run returns promptly.
	s3 := session()
	inj3 := faults.New(1993, faults.Config{HangRate: 1, HangLimit: time.Hour})
	inj3.Instrument(s3.Registry)
	s3.SetTaskTimeout(50 * time.Millisecond)
	f3 := s3.NewFlow()
	n := f3.MustAdd("EditedNetlist")
	must(f3.ExpandDown(n, false))
	tn, _ := f3.Node(n).Dep("fd")
	must(f3.Bind(tn, s3.Must("netEd.fulladder")))
	t0 = time.Now()
	res3, err3 := s3.Run(f3)
	fmt.Printf("hung tool: cut off in %v (deadline exceeded: %v, attempts timed out: %d)\n",
		time.Since(t0).Round(time.Millisecond),
		errors.Is(err3, context.DeadlineExceeded), res3.Stats.Timeouts)
}

// ---- trace --------------------------------------------------------------------

func traceSection() {
	const branches = 8
	const workers = 4
	branchFlow := func(s *hercules.Session) *flow.Flow {
		f := s.NewFlow()
		gens := []string{"netEd.fulladder", "netEd.ripple4"}
		for i := 0; i < branches; i++ {
			n := f.MustAdd("EditedNetlist")
			must(f.ExpandDown(n, false))
			tn, _ := f.Node(n).Dep("fd")
			must(f.Bind(tn, s.Must(gens[i%len(gens)])))
		}
		return f
	}

	// Determinism: events are sequenced in plan commit order, so after
	// masking wall-clock fields the two schedulers emit the same bytes.
	collect := func(sched exec.Scheduler) []runtrace.Event {
		s := session()
		s.SetWorkers(workers)
		s.SetScheduler(sched)
		buf := runtrace.NewBuffer()
		s.SetTracer(buf)
		must1(s.Run(branchFlow(s)))
		return buf.Events()
	}
	evDat, evBar := collect(exec.Dataflow), collect(exec.Barrier)
	datJSONL := runtrace.MaskedJSONL(evDat)
	fmt.Printf("fig6 flow (%d branches, %d workers): %d events per run\n", branches, workers, len(evDat))
	fmt.Printf("byte-identical masked traces across dataflow and barrier: %v\n",
		bytes.Equal(datJSONL, runtrace.MaskedJSONL(evBar)))
	lines := strings.Split(strings.TrimSpace(string(datJSONL)), "\n")
	fmt.Println("masked JSONL (first 3 lines + last):")
	for _, l := range lines[:3] {
		fmt.Printf("  %s\n", l)
	}
	fmt.Printf("  ... %s\n", lines[len(lines)-1])

	// Metrics: the registry is a fold over the same event stream; a
	// chaos run shows the fault counters moving.
	sm := session()
	inj := faults.New(1993, faults.Config{TransientRate: 1, TransientRuns: 2})
	inj.Instrument(sm.Registry)
	sm.SetRetryPolicy(exec.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 7})
	metrics := runtrace.NewMetrics()
	sm.SetTracer(metrics)
	must1(sm.Run(branchFlow(sm)))
	fmt.Println("metrics exposition after a transient-chaos run (excerpt):")
	for _, l := range strings.Split(metrics.Expose(), "\n") {
		if strings.HasPrefix(l, "flow_") && !strings.Contains(l, "_bucket") &&
			!strings.Contains(l, "_sum") && !strings.Contains(l, "_seconds_total") {
			fmt.Printf("  %s\n", l)
		}
	}

	// Overhead: the BenchmarkFig6UnbalancedBranches workload untraced
	// vs with the ring sink (the ≤5%% acceptance budget) vs streaming
	// JSONL. Delay-dominated by design: tracing cost is microseconds
	// per event.
	const depth = 6
	slow, fast := 8*time.Millisecond, 500*time.Microsecond
	measure := func(sink runtrace.Sink) time.Duration {
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			s := session()
			s.SetWorkers(workers)
			s.SetTracer(sink)
			f := s.NewFlow()
			delays := make(map[flow.NodeID]time.Duration)
			for c := 0; c < 2; c++ {
				base := f.MustAdd("EditedNetlist")
				must(f.ExpandDown(base, false))
				tn, _ := f.Node(base).Dep("fd")
				must(f.Bind(tn, s.Must("netEd.fulladder")))
				prev := base
				for d := 0; d < depth; d++ {
					if (d+c)%2 == 0 {
						delays[prev] = slow
					} else {
						delays[prev] = fast
					}
					if d == depth-1 {
						break
					}
					next := must1(f.ExpandUp(prev, "EditedNetlist", "Netlist"))
					must(f.ExpandDown(next, false))
					tn, _ := f.Node(next).Dep("fd")
					must(f.Bind(tn, s.Must("netEd.retouch")))
					prev = next
				}
			}
			s.Engine.SetTaskDelayFunc(func(n flow.NodeID, goal string) time.Duration {
				return delays[n]
			})
			res := must1(s.Run(f))
			if best == 0 || res.Stats.Elapsed < best {
				best = res.Stats.Elapsed
			}
		}
		return best
	}
	base := measure(nil)
	ring := measure(runtrace.NewRing(4096))
	fmt.Printf("unbalanced fig6 workload (best of 5): untraced %v, ring sink %v — overhead %+.2f%%\n",
		base.Round(time.Microsecond), ring.Round(time.Microsecond),
		100*(float64(ring)-float64(base))/float64(base))
}

// ---- memo ---------------------------------------------------------------------

// memoSection demonstrates incremental re-execution: with the
// derivation-keyed result cache (internal/memo) installed, re-running
// the unbalanced fig6 workload executes no tool at all — every unit's
// output is served from cache by content-addressed derivation key, yet
// the warm run still mints fresh history instances with the same
// artifacts and derivations as the cold run.
func memoSection() {
	const depth = 6
	const workers = 4
	slow, fast := 20*time.Millisecond, time.Millisecond
	s := session()
	s.SetWorkers(workers)
	s.SetMemo(memo.New(0))
	build := func() *flow.Flow {
		f := s.NewFlow()
		delays := make(map[flow.NodeID]time.Duration)
		for c := 0; c < 2; c++ {
			base := f.MustAdd("EditedNetlist")
			must(f.ExpandDown(base, false))
			tn, _ := f.Node(base).Dep("fd")
			must(f.Bind(tn, s.Must("netEd.fulladder")))
			prev := base
			for d := 0; d < depth; d++ {
				if (d+c)%2 == 0 {
					delays[prev] = slow
				} else {
					delays[prev] = fast
				}
				if d == depth-1 {
					break
				}
				next := must1(f.ExpandUp(prev, "EditedNetlist", "Netlist"))
				must(f.ExpandDown(next, false))
				tn, _ := f.Node(next).Dep("fd")
				must(f.Bind(tn, s.Must("netEd.retouch")))
				prev = next
			}
		}
		s.Engine.SetTaskDelayFunc(func(n flow.NodeID, goal string) time.Duration {
			return delays[n]
		})
		return f
	}
	fmt.Printf("unbalanced fig6 workload (two chains of %d, %v/%v latencies, %d machines)\n",
		depth, slow, fast, workers)
	cold := must1(s.Run(build()))
	fWarm := build()
	warm := must1(s.Run(fWarm))
	fmt.Printf("cold run: %v (%d/%d units executed)\n",
		cold.Elapsed.Round(time.Millisecond),
		cold.Stats.Units-cold.Stats.CacheHits, cold.Stats.Units)
	fmt.Printf("warm run: %v (%d/%d units served from cache)\n",
		warm.Elapsed.Round(time.Microsecond),
		warm.Stats.CacheHits, warm.Stats.Units)
	fmt.Printf("warm-rerun speedup: %.0fx (acceptance floor 5x)\n",
		float64(cold.Elapsed)/float64(warm.Elapsed))
	st := s.Engine.Memo().Stats()
	fmt.Printf("cache: %d entries — %d hits, %d misses, %d stores\n",
		s.Engine.Memo().Len(), st.Hits, st.Misses, st.Puts)
	// The warm run minted its own instances: none of its unbound nodes
	// reused an ID from the cold run's result.
	coldIDs := make(map[history.ID]bool)
	for _, ids := range cold.Created {
		for _, id := range ids {
			coldIDs[id] = true
		}
	}
	fresh := true
	for n, ids := range warm.Created {
		if fWarm.Node(n).IsBound() {
			continue
		}
		for _, id := range ids {
			if coldIDs[id] {
				fresh = false
			}
		}
	}
	fmt.Printf("fresh history instances on warm re-run: %v\n", fresh)
}

// ---- approaches ---------------------------------------------------------------

func approachesSection() {
	s := session()
	fmt.Println("all four §3.4 approaches reach a Performance:")
	// Goal-based.
	fmt.Println("  goal-based : start Performance, expand, bind (see examples/approaches)")
	// Tool-based choices.
	ft, toolN, err := s.Catalogs.StartFromTool(s.Must("sim"))
	must(err)
	fmt.Printf("  tool-based : simulator seeds node %d (%s); can produce %v\n",
		toolN, ft.Node(toolN).Type, s.Catalogs.GoalsFor("InstalledSimulator"))
	// Data-based choices.
	uses := s.Catalogs.UsesFor("Stimuli")
	var consumers []string
	for _, u := range uses {
		consumers = append(consumers, u.Consumer)
	}
	sort.Strings(consumers)
	fmt.Printf("  data-based : stimuli usable by %v\n", consumers)
	// Plan-based.
	fmt.Printf("  plan-based : catalog offers %v\n", s.Catalogs.FlowNames())
}

// ---- baselines ------------------------------------------------------------------

func baselinesSection() {
	s := schema.Full()
	// Expressiveness: legal primitive tasks derivable from the schema vs
	// a static catalog of the same description size.
	tasks := 0
	for _, t := range s.Types() {
		if t.HasTask() {
			tasks++
		}
	}
	fmt.Printf("dynamic: %d schema types induce %d primitive tasks, composable into unbounded flows\n",
		s.Len(), tasks)

	cat := staticflow.NewCatalog()
	must(cat.Install(&staticflow.Flow{Name: "extract", Steps: []staticflow.Step{
		{Name: "draw", ToolType: "LayoutEditor", Tool: []byte("generate fulladder"), Inputs: map[string]string{}, Output: "lay", Produces: "EditedLayout"},
		{Name: "extract", ToolType: "Extractor", Inputs: map[string]string{"Layout": "lay"}, Output: "net", Produces: "ExtractedNetlist"},
	}}))
	must(cat.Install(&staticflow.Flow{Name: "extract-mux", Steps: []staticflow.Step{
		{Name: "draw", ToolType: "LayoutEditor", Tool: []byte("generate mux2"), Inputs: map[string]string{}, Output: "lay", Produces: "EditedLayout"},
		{Name: "extract", ToolType: "Extractor", Inputs: map[string]string{"Layout": "lay"}, Output: "net", Produces: "ExtractedNetlist"},
	}}))
	fmt.Printf("static : %d flow definitions cover %d tool sequence(s); reordering is refused\n",
		cat.Len(), len(cat.Sequences()))
	fmt.Printf("         tool change cost: editing Extractor touches %d definition(s) (dynamic: 0)\n",
		cat.ToolChangeCost("Extractor"))
	// Demonstrate the straight-jacket.
	sf, _ := cat.Get("extract")
	e := staticflow.Start(sf, s, encap.StandardRegistry(), nil)
	err := e.RunStep("extract")
	fmt.Printf("         out-of-order attempt: %v\n", err)

	// Traces: replay works, methodology does not.
	sess := session()
	f := sess.NewFlow()
	n := f.MustAdd("ExtractedNetlist")
	must(f.ExpandDown(n, false))
	extrN, _ := f.Node(n).Dep("fd")
	layN, _ := f.Node(n).Dep("Layout")
	must(f.Specialize(layN, "EditedLayout"))
	must(f.ExpandDown(layN, false))
	ltn, _ := f.Node(layN).Dep("fd")
	must(f.Bind(extrN, sess.Must("extractor")))
	must(f.Bind(ltn, sess.Must("layEd.fulladder")))
	target := must1(must1(sess.Run(f)).One(n))
	tr := must1(trace.Capture(sess.DB, target))
	fmt.Printf("trace  : captured %d events (%v); replays as a prototype but enforces nothing\n",
		len(tr.Events), tr.ToolSequence())
}

// ---- corpus -----------------------------------------------------------------

// tinyScenario is a pipeline whose instance IDs are known in advance
// (IDs carry the database-global commit sequence: Src:1, T:2, Mid:3,
// Out:4), so the provenance endpoint can be queried blind.
const tinyScenario = `{
  "name": "bench-tiny",
  "schema": [
    "tool T -- the only tool",
    "data Src -- imported source",
    "data Mid -- intermediate",
    "  fd T",
    "  dd Src",
    "data Out -- final output",
    "  fd T",
    "  dd Mid"
  ],
  "tools": [{"type": "T"}],
  "imports": [
    {"key": "src", "type": "Src", "data": "source bytes"},
    {"key": "t", "type": "T", "data": "tool config"}
  ],
  "flow": [
    {"op": "add", "node": "out", "type": "Out"},
    {"op": "expand", "node": "out"},
    {"op": "expand", "node": "out.Mid"},
    {"op": "bind", "node": "out.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.Src", "to": ["src"]}
  ]
}`

// corpusSection drives a live service with the conformance corpus
// (testdata/scenarios/): every scenario is posted verbatim to
// POST /v1/runs and polled to a terminal state — first serially, then
// all at once against the shared engine — and each outcome is checked
// against the scenario's own expectation (success, or failure naming
// the expected error). One run's chaining is then queried back through
// GET /v1/runs/{id}/provenance as an end-to-end check of the
// provenance endpoint. Scenarios driven by harness-side hooks the HTTP
// API does not expose (cancel-mid-run) are skipped.
func corpusSection() {
	srv := must1(service.New(service.Config{Workers: 4}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	files := must1(filepath.Glob(filepath.Join("testdata", "scenarios", "*.json")))
	if len(files) == 0 {
		panic("no scenarios under testdata/scenarios (run from the repository root)")
	}
	type entry struct {
		name    string
		raw     []byte
		wantErr string // expect.error substring; empty = must succeed
	}
	var corpus []entry
	skipped := 0
	for _, path := range files {
		raw := must1(os.ReadFile(path))
		sc := must1(scenario.Decode(raw))
		if sc.Cancel != nil {
			skipped++
			continue
		}
		corpus = append(corpus, entry{name: sc.Name, raw: raw, wantErr: sc.Expect.Error})
	}
	fmt.Printf("corpus: %d scenarios (%d skipped: cancel is a harness hook, not an HTTP call)\n",
		len(corpus), skipped)

	type view struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		TasksRun int    `json:"tasks_run"`
		Error    string `json:"error"`
	}
	post := func(e entry) view {
		body := must1(json.Marshal(map[string]json.RawMessage{
			"scenario": e.raw,
			"user":     json.RawMessage(`"bench"`),
		}))
		resp := must1(http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body)))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			var m map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&m)
			panic(fmt.Sprintf("submit %s: status %d (%v)", e.name, resp.StatusCode, m))
		}
		var v view
		must(json.NewDecoder(resp.Body).Decode(&v))
		return v
	}
	wait := func(id string) view {
		for {
			resp := must1(http.Get(ts.URL + "/v1/runs/" + id))
			var v view
			must(json.NewDecoder(resp.Body).Decode(&v))
			must(resp.Body.Close())
			if v.State != "running" {
				return v
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	conforms := func(e entry, v view) bool {
		if e.wantErr == "" {
			return v.State == "succeeded"
		}
		return v.State == "failed" && strings.Contains(v.Error, e.wantErr)
	}

	bad := 0
	fmt.Printf("%-24s %-9s %5s %9s\n", "scenario", "state", "tasks", "elapsed")
	t0 := time.Now()
	for _, e := range corpus {
		s0 := time.Now()
		v := wait(post(e).ID)
		line := fmt.Sprintf("%-24s %-9s %5d %8.0fms", e.name, v.State, v.TasksRun,
			float64(time.Since(s0).Microseconds())/1000)
		if !conforms(e, v) {
			line += fmt.Sprintf("  UNEXPECTED (want error %q, got %q)", e.wantErr, v.Error)
			bad++
		}
		fmt.Println(line)
	}
	serial := time.Since(t0)

	// The same corpus all at once: every run is its own world (own
	// schema, registry, history database) on the one shared pool.
	t0 = time.Now()
	views := make([]view, len(corpus))
	var wg sync.WaitGroup
	for i, e := range corpus {
		wg.Add(1)
		go func(i int, e entry) {
			defer wg.Done()
			views[i] = wait(post(e).ID)
		}(i, e)
	}
	wg.Wait()
	conc := time.Since(t0)
	for i, e := range corpus {
		if !conforms(e, views[i]) {
			fmt.Printf("concurrent %s: UNEXPECTED state %s (%s)\n", e.name, views[i].State, views[i].Error)
			bad++
		}
	}
	fmt.Printf("serial %v, concurrent %v (%.1fx) — %d/%d outcomes as expected\n",
		serial.Round(time.Millisecond), conc.Round(time.Millisecond),
		float64(serial)/float64(conc), 2*len(corpus)-bad, 2*len(corpus))

	// End-to-end chaining over HTTP: a run with known instance IDs,
	// queried back with an inline hash-chain verification.
	tv := wait(post(entry{name: "bench-tiny", raw: []byte(tinyScenario)}).ID)
	var pv struct {
		Nodes []string `json:"nodes"`
		Chain *struct {
			Records  int  `json:"records"`
			Verified bool `json:"verified"`
		} `json:"chain"`
	}
	resp := must1(http.Get(ts.URL + "/v1/runs/" + tv.ID + "/provenance?inst=Out:4&verify=1"))
	must(json.NewDecoder(resp.Body).Decode(&pv))
	must(resp.Body.Close())
	fmt.Printf("provenance over HTTP: backchain %v, chain verified=%v (%d records)\n",
		pv.Nodes, pv.Chain != nil && pv.Chain.Verified, pv.Chain.Records)

	if forced, err := srv.Shutdown(10 * time.Second); err != nil || forced {
		panic(fmt.Sprintf("Shutdown = (forced %v, err %v)", forced, err))
	}
	if bad != 0 {
		panic(fmt.Sprintf("%d corpus runs diverged from their expectations", bad))
	}
}

// ---- provenance -------------------------------------------------------------

// provenanceSection measures the provenance layer at scale: a
// chain-shaped flowgen world of 600k cells — 1.2M committed instances,
// with the database's derivation graph kept current per commit — then
// the paper's chaining queries answered by the database, and the
// tamper-evident hash chain's append and verify throughput. The
// naive-walker comparison lives with the reference walkers:
// go test -bench 'Backchain|Forwardchain' ./internal/history/. With -out
// the measurements are written as JSON (BENCH_provenance.json).
func provenanceSection() {
	const cells = 600000
	spec := flowgen.Spec{Cells: cells, Shape: flowgen.Chain, Seed: 1993}
	g := must1(flowgen.Generate(spec))
	t0 := time.Now()
	b, ids := must2(g.Populate())
	popTime := time.Since(t0)
	arcs := cells + g.Edges() // one tool arc per cell plus its inputs
	fmt.Printf("world: %s shape, %d cells -> %d instances / %d arcs committed in %v (%.0f inst/s)\n",
		spec.Shape, cells, b.DB.Len(), arcs, popTime.Round(time.Millisecond),
		float64(b.DB.Len())/popTime.Seconds())

	// minOf takes the best of five reps — min-of-N is the right
	// estimator under additive noise from shared-core neighbours.
	minOf := func(f func()) time.Duration {
		runtime.GC() // start the block with a clean pacer: no assist debt in the timings
		var best time.Duration
		for i := 0; i < 5; i++ {
			t := time.Now()
			f()
			if d := time.Since(t); best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	// Deep backchain: the tail of the longest edit chain, unbounded
	// depth — the Fig. 10 history query at version-tree scale.
	deep := ids[len(ids)-1]
	backD := must1(b.DB.Backchain(deep, -1))
	back := minOf(func() { must1(b.DB.Backchain(deep, -1)) })
	fmt.Printf("backchain (deep, %d nodes / %d arcs): %v\n",
		len(backD.Nodes), len(backD.Edges), back.Round(time.Microsecond))

	// Forward chain from the first cell: the whole first edit chain.
	fwdRoot := ids[0]
	fwdD := must1(b.DB.Forwardchain(fwdRoot, -1))
	fwd := minOf(func() { must1(b.DB.Forwardchain(fwdRoot, -1)) })
	fmt.Printf("forwardchain (%d nodes): %v\n", len(fwdD.Nodes), fwd.Round(time.Microsecond))

	// Hash chain: append (SHA-256 over the canonical record, linked to
	// the previous digest) and full verification, over an in-memory log.
	log := storage.NewMemLog()
	ch := provenance.NewChain(log)
	t0 = time.Now()
	b.DB.Observe(ch)
	must(ch.Sync())
	appendTime := time.Since(t0)
	t0 = time.Now()
	must(ch.Verify())
	verifyTime := time.Since(t0)
	recs := ch.Len()
	fmt.Printf("chain: %d records hashed+appended in %v (%.0f rec/s), verified in %v\n",
		recs, appendTime.Round(time.Millisecond),
		float64(recs)/appendTime.Seconds(), verifyTime.Round(time.Millisecond))
	must(ch.Close())

	if benchOut != "" {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		out := struct {
			Bench         string  `json:"bench"`
			Cells         int     `json:"cells"`
			Shape         string  `json:"shape"`
			Seed          int64   `json:"seed"`
			Instances     int     `json:"instances"`
			Arcs          int     `json:"arcs"`
			PopulateMS    float64 `json:"populate_ms"`
			BackNodes     int     `json:"backchain_nodes"`
			BackArcs      int     `json:"backchain_arcs"`
			BackMS        float64 `json:"backchain_ms"`
			FwdNodes      int     `json:"forwardchain_nodes"`
			FwdMS         float64 `json:"forwardchain_ms"`
			ChainRecords  int     `json:"chain_records"`
			ChainAppendMS float64 `json:"chain_append_ms"`
			ChainRecPerS  float64 `json:"chain_records_per_s"`
			ChainVerifyMS float64 `json:"chain_verify_ms"`
		}{"flowbench provenance", cells, string(spec.Shape), spec.Seed,
			b.DB.Len(), arcs, ms(popTime),
			len(backD.Nodes), len(backD.Edges), ms(back),
			len(fwdD.Nodes), ms(fwd),
			recs, ms(appendTime), float64(recs) / appendTime.Seconds(), ms(verifyTime)}
		data := must1(json.MarshalIndent(out, "", "  "))
		must(os.WriteFile(benchOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", benchOut)
	}
}

// ---- scale -------------------------------------------------------------------

// scaleSection is the raw-speed benchmark over synthetic flows
// (internal/flowgen): a layered 10k-cell graph — 20k flow nodes — as
// the primary subject, measuring graph generation + flow construction,
// plan building in isolation (Engine.DryPlan), end-to-end dispatch at
// several pool widths, allocation volume, and a warm re-run against
// the result cache. A smaller sweep over every generator shape charts
// how cost follows structure. -scale-cells resizes the primary graph;
// with -out the measurements are written as JSON (the raw material of
// BENCH_scale.json).
func scaleSection() {
	type dispatchResult struct {
		Workers   int     `json:"workers"`
		ElapsedMS float64 `json:"elapsed_ms"`
		UnitsPerS float64 `json:"units_per_s"`
	}
	type shapeResult struct {
		Shape     string  `json:"shape"`
		Cells     int     `json:"cells"`
		Edges     int     `json:"edges"`
		Depth     int     `json:"depth"`
		PlanMS    float64 `json:"plan_ms"`
		RunMS     float64 `json:"run_ms"`
		UnitsPerS float64 `json:"units_per_s"`
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	cells := scaleCells
	spec := flowgen.Spec{Cells: cells, Shape: flowgen.Layered, Seed: 1993}

	// Graph generation + flow construction.
	t0 := time.Now()
	b := must1(flowgen.Build(spec))
	buildTime := time.Since(t0)
	fmt.Printf("graph: %s, %d cells -> %d flow nodes, %d edges, depth %d (seed %d)\n",
		spec.Shape, cells, b.Flow.Len(), b.Graph.Edges(), b.Graph.Depth(), spec.Seed)
	fmt.Printf("build: graph generated and flow constructed in %v\n", buildTime.Round(time.Millisecond))

	// Planning in isolation: validation, executability, construction
	// grouping, combo enumeration, instance-ID pre-assignment.
	eng := exec.New(b.Schema, b.DB, b.Store, b.Reg)
	t0 = time.Now()
	jobs, units := must2(eng.DryPlan(b.Flow))
	planTime := time.Since(t0)
	fmt.Printf("plan:  %d jobs / %d units in %v (%.0f units/s)\n",
		jobs, units, planTime.Round(time.Millisecond), float64(units)/planTime.Seconds())

	// End-to-end dispatch at several pool widths, a fresh world each so
	// no run replans against another's history.
	var dispatches []dispatchResult
	var allocMB float64
	var mallocs uint64
	fmt.Printf("%9s %12s %12s\n", "workers", "elapsed", "units/s")
	for _, w := range []int{1, 4, 16} {
		bw := must1(flowgen.Build(spec))
		e := exec.New(bw.Schema, bw.DB, bw.Store, bw.Reg)
		e.SetWorkers(w)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := must1(e.RunFlow(bw.Flow))
		runtime.ReadMemStats(&m1)
		d := dispatchResult{Workers: w, ElapsedMS: ms(res.Elapsed),
			UnitsPerS: float64(res.Stats.Units) / res.Elapsed.Seconds()}
		dispatches = append(dispatches, d)
		fmt.Printf("%9d %12v %12.0f\n", w, res.Elapsed.Round(time.Millisecond), d.UnitsPerS)
		if w == 16 {
			allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			mallocs = m1.Mallocs - m0.Mallocs
		}
	}
	fmt.Printf("alloc: %.1f MB total / %d mallocs during the workers=16 run\n", allocMB, mallocs)

	// Warm re-run against the result cache: the same flow again in the
	// same world — every unit is served by derivation key, no tool runs.
	bm := must1(flowgen.Build(spec))
	em := exec.New(bm.Schema, bm.DB, bm.Store, bm.Reg)
	em.SetWorkers(4)
	em.SetMemo(memo.New(0))
	cold := must1(em.RunFlow(bm.Flow))
	warm := must1(em.RunFlow(bm.Flow))
	fmt.Printf("memo:  cold %v, warm %v (%d/%d units from cache) — %.1fx\n",
		cold.Elapsed.Round(time.Millisecond), warm.Elapsed.Round(time.Millisecond),
		warm.Stats.CacheHits, warm.Stats.Units,
		float64(cold.Elapsed)/float64(warm.Elapsed))

	// Shape sweep: a smaller graph of every shape, workers=4.
	sweepCells := cells / 5
	if sweepCells > 2000 {
		sweepCells = 2000
	}
	var shapes []shapeResult
	fmt.Printf("shape sweep at %d cells (workers=4):\n", sweepCells)
	fmt.Printf("%10s %8s %7s %10s %10s %10s\n", "shape", "edges", "depth", "plan", "run", "units/s")
	for _, sh := range flowgen.Shapes() {
		bs := must1(flowgen.Build(flowgen.Spec{Cells: sweepCells, Shape: sh, Seed: 1993}))
		es := exec.New(bs.Schema, bs.DB, bs.Store, bs.Reg)
		es.SetWorkers(4)
		t0 = time.Now()
		must2(es.DryPlan(bs.Flow))
		pt := time.Since(t0)
		res := must1(es.RunFlow(bs.Flow))
		sr := shapeResult{Shape: string(sh), Cells: sweepCells, Edges: bs.Graph.Edges(),
			Depth: bs.Graph.Depth(), PlanMS: ms(pt), RunMS: ms(res.Elapsed),
			UnitsPerS: float64(res.Stats.Units) / res.Elapsed.Seconds()}
		shapes = append(shapes, sr)
		fmt.Printf("%10s %8d %7d %9.0fms %9.0fms %10.0f\n",
			sr.Shape, sr.Edges, sr.Depth, sr.PlanMS, sr.RunMS, sr.UnitsPerS)
	}

	if benchOut != "" {
		out := struct {
			Bench     string           `json:"bench"`
			Cells     int              `json:"cells"`
			Shape     string           `json:"shape"`
			Seed      int64            `json:"seed"`
			FlowNodes int              `json:"flow_nodes"`
			Edges     int              `json:"edges"`
			Depth     int              `json:"depth"`
			Jobs      int              `json:"jobs"`
			Units     int              `json:"units"`
			BuildMS   float64          `json:"build_ms"`
			PlanMS    float64          `json:"plan_ms"`
			PlanUPS   float64          `json:"plan_units_per_s"`
			Dispatch  []dispatchResult `json:"dispatch"`
			AllocMB   float64          `json:"alloc_mb_workers16"`
			Mallocs   uint64           `json:"mallocs_workers16"`
			ColdMS    float64          `json:"memo_cold_ms"`
			WarmMS    float64          `json:"memo_warm_ms"`
			Shapes    []shapeResult    `json:"shapes"`
		}{"flowbench scale", cells, string(spec.Shape), spec.Seed, b.Flow.Len(),
			b.Graph.Edges(), b.Graph.Depth(), jobs, units, ms(buildTime), ms(planTime),
			float64(units) / planTime.Seconds(), dispatches, allocMB, mallocs,
			ms(cold.Elapsed), ms(warm.Elapsed), shapes}
		data := must1(json.MarshalIndent(out, "", "  "))
		must(os.WriteFile(benchOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", benchOut)
	}
}

// durableSection measures the durability tax and the recovery path
// over the scale section's primary subject: the layered 10k-cell graph
// dispatched with and without a write-ahead log underneath (same
// worker widths as the scale section, so the overhead is comparable
// against BENCH_scale.json), then the boot path — reading the finished
// log back and replaying its committed units into a fresh datastore
// and result cache. With -out the measurements are written as JSON
// (the raw material of BENCH_durable.json).
func durableSection() {
	type dispatchResult struct {
		Workers     int     `json:"workers"`
		BaseMS      float64 `json:"base_ms"`
		WALMS       float64 `json:"wal_ms"`
		BaseUPS     float64 `json:"base_units_per_s"`
		WALUPS      float64 `json:"wal_units_per_s"`
		OverheadPct float64 `json:"overhead_pct"`
		// Comparison against the committed BENCH_scale.json dispatch
		// record (the PR 7 after-numbers), when that file is readable:
		// the acceptance yardstick for the durability tax.
		ScaleMS    float64 `json:"scale_baseline_ms,omitempty"`
		VsScalePct float64 `json:"vs_scale_pct,omitempty"`
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

	// scaleBaseline maps workers -> elapsed_ms from BENCH_scale.json's
	// "after" dispatch table, if the record is present in the cwd.
	scaleBaseline := map[int]float64{}
	if data, err := os.ReadFile("BENCH_scale.json"); err == nil {
		var rec struct {
			After struct {
				Dispatch []struct {
					Workers   int     `json:"workers"`
					ElapsedMS float64 `json:"elapsed_ms"`
				} `json:"dispatch"`
			} `json:"after"`
		}
		if json.Unmarshal(data, &rec) == nil {
			for _, d := range rec.After.Dispatch {
				scaleBaseline[d.Workers] = d.ElapsedMS
			}
		}
	}

	cells := scaleCells
	spec := flowgen.Spec{Cells: cells, Shape: flowgen.Layered, Seed: 1993}
	dir := must1(os.MkdirTemp("", "flowbench-durable"))
	defer os.RemoveAll(dir)

	b := must1(flowgen.Build(spec))
	fmt.Printf("graph: %s, %d cells -> %d flow nodes (seed %d)\n",
		spec.Shape, cells, b.Flow.Len(), spec.Seed)

	var dispatches []dispatchResult
	var lastWAL string
	var walBytes int64
	const reps = 3 // best-of-3: single-shot numbers are noise-dominated
	fmt.Printf("%9s %12s %12s %10s\n", "workers", "base", "wal", "overhead")
	for _, w := range []int{1, 4, 16} {
		// Reps interleave base and WAL runs so each pair sees the same
		// machine conditions; min-of-reps on each side filters the rest
		// of the noise (the box is single-core and shared).
		var base, res *exec.Result
		for r := 0; r < reps; r++ {
			bb := must1(flowgen.Build(spec))
			eb := exec.New(bb.Schema, bb.DB, bb.Store, bb.Reg)
			eb.SetWorkers(w)
			runtime.GC()
			got := must1(eb.RunFlow(bb.Flow))
			if base == nil || got.Elapsed < base.Elapsed {
				base = got
			}

			bw := must1(flowgen.Build(spec))
			ew := exec.New(bw.Schema, bw.DB, bw.Store, bw.Reg)
			ew.SetWorkers(w)
			runtime.GC()
			path := filepath.Join(dir, fmt.Sprintf("w%d-%d.wal", w, r))
			l := must1(storage.OpenFile(path))
			wal := storage.NewRunWAL(l)
			must(wal.AppendMeta(storage.RunMeta{ID: "bench", Flow: "layered", User: "bench"}))
			wgot := must1(ew.RunFlowOptions(context.Background(), bw.Flow,
				&exec.RunOptions{Label: "bench", WAL: wal}))
			must(wal.Close())
			must(l.Close())
			if res == nil || wgot.Elapsed < res.Elapsed {
				res = wgot
			}
			fi := must1(os.Stat(path))
			lastWAL, walBytes = path, fi.Size()
		}

		d := dispatchResult{Workers: w, BaseMS: ms(base.Elapsed), WALMS: ms(res.Elapsed),
			BaseUPS: float64(base.Stats.Units) / base.Elapsed.Seconds(),
			WALUPS:  float64(res.Stats.Units) / res.Elapsed.Seconds(),
			OverheadPct: (float64(res.Elapsed)/float64(base.Elapsed) - 1) * 100}
		if sb := scaleBaseline[w]; sb > 0 {
			d.ScaleMS = sb
			d.VsScalePct = (d.WALMS/sb - 1) * 100
		}
		dispatches = append(dispatches, d)
		line := fmt.Sprintf("%9d %12v %12v %+9.1f%%", w,
			base.Elapsed.Round(time.Millisecond), res.Elapsed.Round(time.Millisecond),
			d.OverheadPct)
		if d.ScaleMS > 0 {
			line += fmt.Sprintf("   (vs BENCH_scale %.0fms: %+.1f%%)", d.ScaleMS, d.VsScalePct)
		}
		fmt.Println(line)
	}

	// The boot path: recover the finished workers=16 log and replay its
	// committed payloads into a fresh datastore and result cache.
	t0 := time.Now()
	l := must1(storage.OpenFile(lastWAL))
	rec := must1(storage.RecoverRun(l))
	st := datastore.NewStore()
	must(rec.Replay(st, memo.New(0)))
	must(l.Close())
	recTime := time.Since(t0)
	fmt.Printf("recover: %.1f MB log, %d events, %d committed units replayed in %v (%.0f units/s)\n",
		float64(walBytes)/(1<<20), len(rec.Events), len(rec.Commits),
		recTime.Round(time.Millisecond), float64(len(rec.Commits))/recTime.Seconds())

	if benchOut != "" {
		out := struct {
			Bench      string           `json:"bench"`
			Note       string           `json:"note"`
			Cells      int              `json:"cells"`
			Shape      string           `json:"shape"`
			Seed       int64            `json:"seed"`
			FlowNodes  int              `json:"flow_nodes"`
			Dispatch   []dispatchResult `json:"dispatch"`
			WALBytes   int64            `json:"wal_bytes_workers16"`
			RecEvents  int              `json:"recover_events"`
			RecCommits int              `json:"recover_commits"`
			RecoverMS  float64          `json:"recover_ms"`
		}{"flowbench durable", "base and wal are min-of-3 interleaved runs in one process; " +
			"the box is a single shared core, so the paired base_ms is the fair reference and " +
			"vs_scale_pct carries cross-session machine drift on top of the WAL tax",
			cells, string(spec.Shape), spec.Seed, b.Flow.Len(),
			dispatches, walBytes, len(rec.Events), len(rec.Commits), ms(recTime)}
		data := must1(json.MarshalIndent(out, "", "  "))
		must(os.WriteFile(benchOut, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", benchOut)
	}
}

// must2 is must1 over two-value returns.
func must2[A, B any](a A, b B, err error) (A, B) {
	must(err)
	return a, b
}

// ---- helpers ---------------------------------------------------------------

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n") + "\n"
}
