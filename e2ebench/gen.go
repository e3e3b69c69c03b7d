package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/flowgen"
	"repro/internal/scenario"
)

// This file makes every workload input from the seed: the generated
// worlds, the submission mix, and the answers the checks expect. The
// program under test receives only the generated inputs.

// bulkCells is the size of one bulk scenario.
const bulkCells = 10000

// submission is one POST /v1/runs body with the outcome it must have.
type submission struct {
	label string
	body  []byte
	check func(runView) error
}

// generatedSubmission wraps a flowgen world in a scenario submission.
func generatedSubmission(spec flowgen.Spec) (submission, error) {
	g, err := flowgen.Generate(spec)
	if err != nil {
		return submission{}, err
	}
	sc := map[string]any{
		"name":     fmt.Sprintf("gen-%s-%d-%d", spec.Shape, spec.Cells, spec.Seed),
		"generate": map[string]any{"cells": spec.Cells, "shape": string(spec.Shape), "seed": spec.Seed},
	}
	body, err := json.Marshal(map[string]any{"scenario": sc, "user": "bench"})
	if err != nil {
		return submission{}, err
	}
	want := len(g.Cells)
	return submission{
		label: sc["name"].(string),
		body:  body,
		check: func(v runView) error {
			if v.State != "succeeded" || v.TasksRun != want {
				return fmt.Errorf("%s: state %s tasks_run %d, want succeeded with %d (%s)", v.ID, v.State, v.TasksRun, want, v.Error)
			}
			return nil
		},
	}, nil
}

// menuSubmission submits a flow from the server's menu.
func menuSubmission(f flowSpec) submission {
	body, _ := json.Marshal(map[string]string{"flow": f.Name, "user": "bench"})
	return submission{
		label: "menu:" + f.Name,
		body:  body,
		check: func(v runView) error {
			if v.State != "succeeded" || v.TasksRun != f.Units {
				return fmt.Errorf("%s (%s): state %s tasks_run %d, want succeeded with %d (%s)", v.ID, f.Name, v.State, v.TasksRun, f.Units, v.Error)
			}
			return nil
		},
	}
}

// corpusSubmissions loads the scenario corpus entries a client can
// submit over HTTP and whose time is not declared: cancellation is a
// harness hook, and sleeping tools or fault latency would make the run
// time the scenario's own.
func corpusSubmissions(dir string) ([]submission, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []submission
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if sc.Cancel != nil || declaresTime(sc) {
			continue
		}
		body, err := json.Marshal(map[string]any{"scenario": json.RawMessage(raw), "user": "bench"})
		if err != nil {
			return nil, err
		}
		name, want := sc.Name, sc.Expect
		out = append(out, submission{label: "corpus:" + name, body: body, check: func(v runView) error {
			switch {
			case want.Error == "" && v.State != "succeeded":
				return fmt.Errorf("%s (%s): state %s, want succeeded (%s)", v.ID, name, v.State, v.Error)
			case want.Error != "" && (v.State != "failed" || !strings.Contains(v.Error, want.Error)):
				return fmt.Errorf("%s (%s): state %s error %q, want failed with %q", v.ID, name, v.State, v.Error, want.Error)
			case want.TasksRun != nil && v.TasksRun != *want.TasksRun:
				return fmt.Errorf("%s (%s): tasks_run %d, want %d", v.ID, name, v.TasksRun, *want.TasksRun)
			}
			return nil
		}})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no submittable scenarios under %s", dir)
	}
	return out, nil
}

// declaresTime reports a scenario whose run time is declared sleep or
// injected fault latency.
func declaresTime(sc *scenario.Scenario) bool {
	for _, t := range sc.Tools {
		if t.SleepMs > 0 {
			return true
		}
	}
	if f := sc.Faults; f != nil {
		cfgs := []*scenario.FaultConfig{f.Base}
		for _, c := range f.ByTool {
			cfgs = append(cfgs, &c)
		}
		for _, c := range f.ByGoal {
			cfgs = append(cfgs, &c)
		}
		for _, c := range cfgs {
			if c != nil && (c.LatencyRate > 0 || c.HangRate > 0) {
				return true
			}
		}
	}
	return false
}

// mix draws the interactive submission stream: generated worlds of
// 16–256 cells in all four shapes, the menu flows perf and wide8, and
// the submittable corpus scenarios. It draws in blocks of 16 with a
// fixed make-up — per shape one small (16–135 cells) and one large
// (136–256 cells) world, two perf, two wide8, four corpus scenarios
// taken in turn from a seeded order of the corpus — shuffled within the
// block. The seed picks sizes, shapes' seeds and order, while every
// seed offers the same kinds of work in the same shares, so runs on
// different seeds measure the same workload.
type mix struct {
	rng        *rand.Rand
	menu       []submission
	corpus     []submission
	block      []submission
	nextCorpus int // next corpus entry
	order      []int
}

func newMix(seed int64, flows []flowSpec, corpus []submission) (*mix, error) {
	m := &mix{rng: rand.New(rand.NewSource(seed)), corpus: corpus}
	for _, f := range flows {
		if f.Name == "perf" || f.Name == "wide8" {
			m.menu = append(m.menu, menuSubmission(f))
		}
	}
	if len(m.menu) != 2 {
		return nil, fmt.Errorf("flow menu lacks perf or wide8: %+v", flows)
	}
	m.order = m.rng.Perm(len(corpus))
	return m, nil
}

// next draws one submission.
func (m *mix) next() (submission, error) {
	if len(m.block) == 0 {
		if err := m.fill(); err != nil {
			return submission{}, err
		}
	}
	s := m.block[0]
	m.block = m.block[1:]
	return s, nil
}

// fill draws the next block.
func (m *mix) fill() error {
	for _, shape := range flowgen.Shapes() {
		for _, size := range [][2]int{{16, 135}, {136, 256}} {
			s, err := generatedSubmission(flowgen.Spec{
				Cells: size[0] + m.rng.Intn(size[1]-size[0]+1),
				Shape: shape,
				Seed:  m.rng.Int63n(1 << 30),
			})
			if err != nil {
				return err
			}
			m.block = append(m.block, s)
		}
	}
	m.block = append(m.block, m.menu[0], m.menu[0], m.menu[1], m.menu[1])
	for range 4 {
		if len(m.corpus) > 0 {
			m.block = append(m.block, m.corpus[m.order[m.nextCorpus%len(m.order)]])
			m.nextCorpus++
		}
	}
	m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	return nil
}

// cellNode is the flow node of cell i in a flowgen flow: BuildFlow adds
// a Cell node and its GenTool node per cell, and flow node IDs count up
// from 1 (gen_test.go pins this against flowgen itself).
func cellNode(i int) int { return 2*i + 1 }

// chainModel answers "how many nodes does this chaining query return"
// from a generated graph alone, independently of the service: the
// benchmark's reference for provenance answers. Nodes 0..n-1 are the
// cells, n..2n-1 their tool instances.
type chainModel struct {
	g     *flowgen.Graph
	users [][]int32 // users[c] = the cells that consume cell c
}

func newChainModel(g *flowgen.Graph) *chainModel {
	m := &chainModel{g: g, users: make([][]int32, len(g.Cells))}
	for i, c := range g.Cells {
		for _, in := range c.Ins {
			m.users[in] = append(m.users[in], int32(i))
		}
	}
	return m
}

// count is the size of a backward (tool and input arcs) or forward
// (use arcs) chaining answer rooted at cell, depth < 0 = unbounded.
func (m *chainModel) count(cell int, back bool, depth int) int {
	n := len(m.g.Cells)
	seen := map[int]bool{cell: true}
	frontier := []int{cell}
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []int
		visit := func(x int) {
			if !seen[x] {
				seen[x] = true
				next = append(next, x)
			}
		}
		for _, cur := range frontier {
			if cur >= n {
				continue // a tool instance: no derivation, no users among queried cells
			}
			if back {
				visit(n + cur)
				for _, in := range m.g.Cells[cur].Ins {
					visit(in)
				}
			} else {
				for _, u := range m.users[cur] {
					visit(int(u))
				}
			}
		}
		frontier = next
	}
	return len(seen)
}

// queryDepths are the chaining depths queries draw from: 1 level to
// unbounded.
var queryDepths = []int{1, 2, 4, 8, -1}
