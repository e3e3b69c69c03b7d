package history_test

import (
	"fmt"

	"repro/internal/history"
)

// naive is the differential reference for DB.Backchain and
// DB.Forwardchain: plain map walkers over a snapshot of the database's
// records, with none of the derivation graph's machinery. Build it with
// newNaive after the last commit it should see.
type naive struct {
	inst   map[history.ID]*history.Instance
	usedBy map[history.ID][]naiveUse // used instance -> its arcs, in commit order
}

// naiveUse is one use-dependency arc as recorded: the dependent, the
// arc kind and the dependency key it used.
type naiveUse struct {
	user history.ID
	kind history.EdgeKind
	key  string
}

func newNaive(db *history.DB) *naive {
	n := &naive{
		inst:   make(map[history.ID]*history.Instance),
		usedBy: make(map[history.ID][]naiveUse),
	}
	for _, in := range db.All() {
		n.inst[in.ID] = in
		if in.Tool != "" {
			n.usedBy[in.Tool] = append(n.usedBy[in.Tool], naiveUse{in.ID, history.EdgeTool, ""})
		}
		for _, x := range in.Inputs {
			n.usedBy[x.Inst] = append(n.usedBy[x.Inst], naiveUse{in.ID, history.EdgeInput, x.Key})
		}
	}
	return n
}

func (n *naive) Backchain(id history.ID, depth int) (*history.Derivation, error) {
	if n.inst[id] == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &history.Derivation{Root: id, Nodes: []history.ID{id}}
	visited := map[history.ID]bool{id: true}
	frontier := []history.ID{id}
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []history.ID
		for _, cur := range frontier {
			in := n.inst[cur]
			if in.Tool != "" {
				d.Edges = append(d.Edges, history.Edge{Parent: cur, Child: in.Tool, Kind: history.EdgeTool})
				if !visited[in.Tool] {
					visited[in.Tool] = true
					d.Nodes = append(d.Nodes, in.Tool)
					next = append(next, in.Tool)
				}
			}
			for _, x := range in.Inputs {
				d.Edges = append(d.Edges, history.Edge{Parent: cur, Child: x.Inst, Kind: history.EdgeInput, Key: x.Key})
				if !visited[x.Inst] {
					visited[x.Inst] = true
					d.Nodes = append(d.Nodes, x.Inst)
					next = append(next, x.Inst)
				}
			}
		}
		frontier = next
	}
	return d, nil
}

func (n *naive) Forwardchain(id history.ID, depth int) (*history.Derivation, error) {
	if n.inst[id] == nil {
		return nil, fmt.Errorf("history: no instance %s", id)
	}
	d := &history.Derivation{Root: id, Nodes: []history.ID{id}}
	visited := map[history.ID]bool{id: true}
	frontier := []history.ID{id}
	for level := 0; len(frontier) > 0 && (depth < 0 || level < depth); level++ {
		var next []history.ID
		for _, cur := range frontier {
			for _, u := range n.usedBy[cur] {
				d.Edges = append(d.Edges, history.Edge{Parent: u.user, Child: cur, Kind: u.kind, Key: u.key})
				if !visited[u.user] {
					visited[u.user] = true
					d.Nodes = append(d.Nodes, u.user)
					next = append(next, u.user)
				}
			}
		}
		frontier = next
	}
	return d, nil
}
