package history

import (
	"fmt"
	"sync"
)

// This file holds the derivation graph in adjacency form: the one
// structure behind backward and forward chaining (§4.2) and everything
// built on them. Every DB keeps one, updated in recordLocked and
// rebuilt by Restore; Index wraps a detached copy fed through Observe.

// keyTool is the key number of every tool (fd) arc; data (dd) arcs
// intern their dependency key from 1 up.
const keyTool = 0

// arc is one derivation arc as seen from one end: the dense number of
// the instance at the other end, the interned dependency key, and the
// next arc of the same instance (-1 ends the list).
type arc struct {
	node, key, next int32
}

// adj is one direction of the derivation graph: each instance's arcs
// form a list, in commit order, threaded through one flat slice — O(1)
// appends, no per-instance slice headers. An instance's derivation is
// written once, at its commit, so its backward list is one contiguous
// run of arcs.
type adj struct {
	head, tail []int32 // per instance: first and last arc, or -1
	arcs       []arc
}

func (a *adj) grow() {
	a.head = append(a.head, -1)
	a.tail = append(a.tail, -1)
}

func (a *adj) add(from, to, key int32) {
	i := int32(len(a.arcs))
	a.arcs = append(a.arcs, arc{node: to, key: key, next: -1})
	if a.tail[from] < 0 {
		a.head[from] = i
	} else {
		a.arcs[a.tail[from]].next = i
	}
	a.tail[from] = i
}

// graph is the derivation adjacency over every committed instance,
// numbered densely in commit order: back lists each instance's tool
// arc then its input arcs in input order; fwd lists its dependents'
// arcs in commit order. A query walks arrays and costs O(nodes + arcs
// in the answer) after one map lookup for the root.
//
// graph has no lock of its own: the DB guards it with db.mu, an Index
// with Index.mu. Queries only read it, so they run concurrently; each
// takes its visit marks from a free list (see walk).
type graph struct {
	ids       []ID         // dense number -> instance ID, in commit order
	num       map[ID]int32 // instance ID -> dense number
	keys      []string     // key number -> dependency key; keys[keyTool] = ""
	keyNum    map[string]int32
	back, fwd adj

	walkMu sync.Mutex
	walks  []*walk
}

// reset empties the graph (it is also its initialiser).
func (g *graph) reset() {
	g.ids, g.num = nil, make(map[ID]int32)
	g.keys, g.keyNum = []string{""}, make(map[string]int32)
	g.back, g.fwd = adj{}, adj{}
}

// node assigns the next dense number to id.
func (g *graph) node(id ID) int32 {
	n := int32(len(g.ids))
	g.ids = append(g.ids, id)
	g.num[id] = n
	g.back.grow()
	g.fwd.grow()
	return n
}

// link adds the derivation arcs of in, numbered n. Every instance in
// references must already have a number; a missing one means the graph
// missed a commit, and panics.
func (g *graph) link(n int32, in *Instance) {
	add := func(child ID, key int32) {
		c, ok := g.num[child]
		if !ok {
			panic(fmt.Sprintf("history: %s references unindexed instance %s", in.ID, child))
		}
		g.back.add(n, c, key)
		g.fwd.add(c, n, key)
	}
	if in.Tool != "" {
		add(in.Tool, keyTool)
	}
	for _, x := range in.Inputs {
		k, ok := g.keyNum[x.Key]
		if !ok {
			k = int32(len(g.keys))
			g.keys = append(g.keys, x.Key)
			g.keyNum[x.Key] = k
		}
		add(x.Inst, k)
	}
}

// walk is one query's scratch: visit marks over the whole graph and
// the BFS queue. Marks are cleared through the queue — which lists
// exactly the visited nodes — when the walk is released, so a query
// costs O(answer), not O(database), once the free list is warm.
type walk struct {
	seen []bool
	q    []int32
}

// chain is Backchain (forward false) or Forwardchain (forward true).
// BFS levels are contiguous runs of the queue, so one pass finds the
// nodes and counts the arcs, and a second emits the arcs of the
// expanded prefix into an exactly sized slice.
func (g *graph) chain(id ID, depth int, forward bool) (*Derivation, error) {
	root, ok := g.num[id]
	if !ok {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	a := &g.back
	if forward {
		a = &g.fwd
	}
	w := g.walk(root)
	defer g.release(w)
	done, arcs := 0, 0
	for level := 0; done < len(w.q) && (depth < 0 || level < depth); level++ {
		end := len(w.q)
		for _, cur := range w.q[done:end] {
			for i := a.head[cur]; i >= 0; i = a.arcs[i].next {
				arcs++
				if n := a.arcs[i].node; !w.seen[n] {
					w.seen[n] = true
					w.q = append(w.q, n)
				}
			}
		}
		done = end
	}
	d := &Derivation{Root: id, Nodes: make([]ID, len(w.q))}
	for i, n := range w.q {
		d.Nodes[i] = g.ids[n]
	}
	if arcs > 0 {
		d.Edges = make([]Edge, 0, arcs)
	}
	for _, cur := range w.q[:done] {
		for i := a.head[cur]; i >= 0; i = a.arcs[i].next {
			e := Edge{Parent: g.ids[cur], Child: g.ids[a.arcs[i].node], Kind: EdgeTool}
			if forward {
				e.Parent, e.Child = e.Child, e.Parent
			}
			if k := a.arcs[i].key; k != keyTool {
				e.Kind, e.Key = EdgeInput, g.keys[k]
			}
			d.Edges = append(d.Edges, e)
		}
	}
	return d, nil
}

// walk takes a free walk, grown to the graph's size, with root queued.
func (g *graph) walk(root int32) *walk {
	g.walkMu.Lock()
	var w *walk
	if n := len(g.walks); n > 0 {
		w, g.walks = g.walks[n-1], g.walks[:n-1]
	}
	g.walkMu.Unlock()
	if w == nil {
		w = new(walk)
	}
	if len(w.seen) < len(g.ids) {
		w.seen = append(w.seen, make([]bool, len(g.ids)-len(w.seen))...)
	}
	w.seen[root] = true
	w.q = append(w.q[:0], root)
	return w
}

// release clears w's marks and returns it to the free list.
func (g *graph) release(w *walk) {
	for _, n := range w.q {
		w.seen[n] = false
	}
	g.walkMu.Lock()
	g.walks = append(g.walks, w)
	g.walkMu.Unlock()
}

// Index is a detached copy of a database's derivation graph, kept
// current as a commit observer: attach it with db.Observe(idx). It
// answers Backchain and Forwardchain exactly as the database does,
// under its own lock. Flowd does not use one — the database's own
// graph serves its queries — but callers that time the graph's upkeep
// as a separate layer can.
type Index struct {
	mu sync.RWMutex
	g  graph
}

// NewIndex returns an empty detached index.
func NewIndex() *Index {
	x := new(Index)
	x.g.reset()
	return x
}

// OnCommit indexes one committed instance (history.CommitObserver).
// Re-observing an indexed instance is a no-op; a reference to an
// instance the index never saw panics.
func (x *Index) OnCommit(inst *Instance) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.g.num[inst.ID]; !ok {
		x.g.link(x.g.node(inst.ID), inst)
	}
}

// Backchain is DB.Backchain over the indexed records.
func (x *Index) Backchain(id ID, depth int) (*Derivation, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.g.chain(id, depth, false)
}

// Forwardchain is DB.Forwardchain over the indexed records.
func (x *Index) Forwardchain(id ID, depth int) (*Derivation, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.g.chain(id, depth, true)
}
