package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Persistence for the history database: the instance records are the
// whole state (every index is derived), so a dump is simply the
// instances in creation order, and restore rebuilds the indexes while
// re-validating the derivation typing.

// DumpJSON writes all instances as JSON (an array in creation order).
func (db *DB) DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(db.All())
}

// Restore loads instances previously written by Dump into an empty
// database. Instance IDs are preserved; the sequence counter resumes
// after the largest restored ID. Restoring into a non-empty database is
// refused.
func (db *DB) Restore(r io.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.g.ids) != 0 {
		return fmt.Errorf("history: Restore into non-empty database")
	}
	var insts []*Instance
	if err := json.NewDecoder(r).Decode(&insts); err != nil {
		return fmt.Errorf("history: restore: %w", err)
	}
	// First pass: insert all records so referential checks can see
	// forward references too (dumps are in creation order, but be
	// lenient).
	for _, in := range insts {
		if in == nil || in.ID == "" {
			db.wipeLocked()
			return fmt.Errorf("history: restore: record without ID")
		}
		if db.look(in.ID) != nil {
			db.wipeLocked()
			return fmt.Errorf("history: restore: duplicate ID %s", in.ID)
		}
		cp := *in
		cp.Inputs = append([]Input(nil), in.Inputs...)
		db.insert(&cp)
	}
	// Second pass: validate each record against the schema and rebuild
	// the derived indexes in creation order. Every instance is numbered
	// before any arcs are linked, so forward references resolve here too.
	ordered := append([]*Instance(nil), insts...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Created.Equal(ordered[j].Created) {
			return seqOf(ordered[i].ID) < seqOf(ordered[j].ID)
		}
		return ordered[i].Created.Before(ordered[j].Created)
	})
	for _, in := range ordered {
		db.g.node(in.ID)
	}
	maxSeq := 0
	for n, in := range ordered {
		if err := db.validateRestored(in); err != nil {
			db.wipeLocked()
			return err
		}
		db.byType[in.Type] = append(db.byType[in.Type], in.ID)
		db.g.link(int32(n), in)
		if s := seqOf(in.ID); s > maxSeq {
			maxSeq = s
		}
	}
	db.seq = maxSeq
	return nil
}

// wipeLocked clears all state after a failed restore.
func (db *DB) wipeLocked() {
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
	db.byType = make(map[string][]ID)
	db.g.reset()
	db.seq = 0
}

// seqOf parses the numeric suffix of an ID ("Type:123" -> 123).
func seqOf(id ID) int {
	s := string(id)
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return 0
	}
	return n
}

// validateRestored re-runs Record's typing checks for a restored
// instance (existence checks consult the fully inserted map).
func (db *DB) validateRestored(in *Instance) error {
	t := db.schema.Type(in.Type)
	if t == nil {
		return fmt.Errorf("history: restore: %s has unknown type %q", in.ID, in.Type)
	}
	if t.Abstract {
		return fmt.Errorf("history: restore: %s has abstract type %q", in.ID, in.Type)
	}
	switch {
	case t.FuncDep != nil && in.Tool == "":
		return fmt.Errorf("history: restore: %s lacks its tool", in.ID)
	case t.FuncDep == nil && in.Tool != "":
		return fmt.Errorf("history: restore: %s has a tool but its type takes none", in.ID)
	case t.FuncDep != nil:
		ti := db.look(in.Tool)
		if ti == nil {
			return fmt.Errorf("history: restore: %s references missing tool %s", in.ID, in.Tool)
		}
		if !db.schema.Satisfies(ti.Type, t.FuncDep.Type) {
			return fmt.Errorf("history: restore: %s tool %s ill-typed", in.ID, in.Tool)
		}
	}
	seen := make(map[string]bool)
	for _, x := range in.Inputs {
		d, ok := t.DepByKey(x.Key)
		if !ok || (t.FuncDep != nil && x.Key == t.FuncDep.Key()) {
			return fmt.Errorf("history: restore: %s has unknown input key %q", in.ID, x.Key)
		}
		if seen[x.Key] {
			return fmt.Errorf("history: restore: %s repeats input %q", in.ID, x.Key)
		}
		seen[x.Key] = true
		ii := db.look(x.Inst)
		if ii == nil {
			return fmt.Errorf("history: restore: %s references missing input %s", in.ID, x.Inst)
		}
		if !db.schema.Satisfies(ii.Type, d.Type) {
			return fmt.Errorf("history: restore: %s input %s ill-typed", in.ID, x.Inst)
		}
	}
	for _, d := range t.RequiredDeps() {
		if !seen[d.Key()] {
			return fmt.Errorf("history: restore: %s missing required input %q", in.ID, d.Key())
		}
	}
	return nil
}
