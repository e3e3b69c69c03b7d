// Package history implements the design-history database of Sutton,
// Brockman and Director (DAC 1993), sections 3.3 and 4.2.
//
// Every design object in the framework is created by executing a flow, and
// each object carries a small amount of meta-data: who created it, when,
// an annotation, and — crucially — its derivation: the tool instance and
// the data instances used to create it. From that per-instance derivation
// record the complete derivation history of a design can be reconstructed,
// which (as the paper argues, following van den Hamer & Treffers) obviates
// a separate version-management subsystem: backward chaining yields an
// instance's derivation history, forward chaining yields its dependents,
// flow traces subsume version trees, and out-of-date detection plus
// retracing fall out of timestamp comparison along derivations.
//
// The task schema (package schema) is the data schema of this database:
// an instance's type must exist in the schema and its recorded derivation
// must be well-typed against the type's functional and data dependencies.
package history

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/schema"
)

// ID identifies an instance within one DB. IDs read "TypeName:seq".
type ID string

// MakeID renders the instance ID for a type and sequence number:
// "Type:seq". This is the database's ID scheme in one place — the
// execution engine's planner uses it to pre-assign the IDs a future
// commit sequence will produce (see Seq).
func MakeID(typ string, seq int) ID {
	b := make([]byte, 0, len(typ)+12)
	b = append(b, typ...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(seq), 10)
	return ID(b)
}

// Input records that the instance identified by Inst filled the
// dependency with key Key (see schema.Dep.Key) during construction.
type Input struct {
	Key  string
	Inst ID
}

// Instance is one design object plus its meta-data. The derivation fields
// (Tool, Inputs) are what make the history database queryable.
type Instance struct {
	ID      ID
	Type    string // concrete entity type name from the schema
	Name    string // user-supplied short name (annotation)
	Comment string // user-supplied description (annotation)
	User    string
	Created time.Time

	// Tool is the tool instance that executed the construction task, or
	// empty for primitive sources (installed tools, imported data) and
	// composite entities.
	Tool ID
	// Inputs are the data instances used, keyed by dependency.
	Inputs []Input

	// Data points at the physical artifact in the datastore. Several
	// instances may share one ref (or one Archive+Revision pair): the
	// paper's footnote-5 physical sharing.
	Data datastore.Ref
	// Archive/Revision optionally place the artifact in an RCS-like
	// archive instead of (or in addition to) a plain blob.
	Archive  string
	Revision int
}

// InputFor returns the instance bound to the dependency key, if any.
func (in *Instance) InputFor(key string) (ID, bool) {
	for _, i := range in.Inputs {
		if i.Key == key {
			return i.Inst, true
		}
	}
	return "", false
}

// InputIDs returns just the instance IDs of all inputs, in order.
func (in *Instance) InputIDs() []ID {
	out := make([]ID, len(in.Inputs))
	for i, x := range in.Inputs {
		out[i] = x.Inst
	}
	return out
}

// String renders "ID (name) by user".
func (in *Instance) String() string {
	s := string(in.ID)
	if in.Name != "" {
		s += " (" + in.Name + ")"
	}
	if in.User != "" {
		s += " by " + in.User
	}
	return s
}

// instShards is the number of shards the byID index is split into.
// Sixteen keeps per-shard contention negligible at the engine's worker
// counts without measurable memory overhead.
const instShards = 16

// instShard is one shard of the byID index: its own lock, its own map,
// so point reads from many worker goroutines never contend on the
// database's global lock (which continues to guard the sequence counter
// and the derived indexes).
type instShard struct {
	mu sync.RWMutex
	m  map[ID]*Instance
}

// DB is the design-history database. It is safe for concurrent use.
//
// Locking: db.mu guards the sequence counter, the derived indexes
// (byType and the derivation graph g) and the clock; the byID index is
// sharded with per-shard locks (see instShard). Writers take db.mu
// exclusively and then the shard lock of the instance they insert, so
// code holding db.mu (either mode) may read shards freely; point
// readers (Get, TypeOf, Has, ArtifactInfo) take only the shard lock.
// Stored instances are immutable — Annotate replaces the stored copy
// rather than mutating it — so a pointer read under the shard lock is
// safe to dereference after the lock is released.
type DB struct {
	mu     sync.RWMutex
	schema *schema.Schema
	clock  func() time.Time
	seq    int
	shards [instShards]instShard
	byType map[string][]ID // concrete type -> IDs in creation order
	g      graph           // derivation adjacency; g.ids is the creation order

	// observers are notified of every commit, in commit order, under
	// db.mu (see CommitObserver).
	observers []CommitObserver
}

// CommitObserver receives every committed instance, in commit order.
// OnCommit is invoked under the database's write lock with the stored
// (immutable) instance, so implementations must be fast, must not
// retain the Inputs slice for mutation, and must not call back into
// the DB. The provenance hash chain (internal/provenance) is the
// canonical observer.
type CommitObserver interface {
	OnCommit(inst *Instance)
}

// Observe registers an observer. Instances already recorded are
// replayed into it first — in creation order, under the same lock that
// blocks new commits — so the observer's view is complete and gap-free
// no matter when it attaches.
func (db *DB) Observe(o CommitObserver) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, id := range db.g.ids {
		o.OnCommit(db.look(id))
	}
	db.observers = append(db.observers, o)
}

// NewDB creates an empty history database over the given schema.
func NewDB(s *schema.Schema) *DB {
	db := &DB{schema: s, clock: time.Now, byType: make(map[string][]ID)}
	db.g.reset()
	return db
}

// shardOf maps an ID to its shard (FNV-1a over the ID bytes).
func (db *DB) shardOf(id ID) *instShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &db.shards[h%instShards]
}

// look returns the stored instance, or nil. Stored instances are
// immutable, so the caller may read fields after the shard lock is
// released; callers handing the pointer outside the package must copy
// (see get).
func (db *DB) look(id ID) *Instance {
	sh := db.shardOf(id)
	sh.mu.RLock()
	in := sh.m[id]
	sh.mu.RUnlock()
	return in
}

// insert stores an instance in its shard. The caller holds db.mu.
func (db *DB) insert(in *Instance) {
	sh := db.shardOf(in.ID)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[ID]*Instance)
	}
	sh.m[in.ID] = in
	sh.mu.Unlock()
}

// SetClock replaces the timestamp source; tests use it for determinism.
func (db *DB) SetClock(clock func() time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock = clock
}

// Schema returns the schema the database validates against.
func (db *DB) Schema() *schema.Schema { return db.schema }

// Record validates and stores a new instance described by rec, assigning
// its ID and creation time, and returns the stored copy. The caller fills
// Type, Name, Comment, User, Tool, Inputs, Data, Archive and Revision;
// ID and Created are overwritten.
//
// Validation enforces that the database remains a well-typed derivation
// history:
//
//   - Type names a concrete (non-abstract) schema type;
//   - every referenced tool/input instance exists (no dangling
//     derivations);
//   - if the type has a functional dependency, Tool is present and its
//     instance's type satisfies it; if not, Tool must be empty;
//   - every Input key names a dependency of the type and the input
//     instance's type satisfies that dependency;
//   - all required (non-optional) data dependencies are filled — except
//     for primitive sources, which have none.
func (db *DB) Record(rec Instance) (*Instance, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	id, err := db.recordLocked(rec)
	if err != nil {
		return nil, err
	}
	return db.get(id), nil
}

// RecordID is Record without the defensive copy of the stored instance:
// it validates, stores, and returns only the assigned ID. Bulk loaders
// and the engine's commit path use it on graphs where cloning every
// just-written record is measurable overhead.
func (db *DB) RecordID(rec Instance) (ID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.recordLocked(rec)
}

// recordLocked validates and stores rec under db.mu, returning the
// assigned ID.
func (db *DB) recordLocked(rec Instance) (ID, error) {
	t := db.schema.Type(rec.Type)
	if t == nil {
		return "", fmt.Errorf("history: unknown entity type %q", rec.Type)
	}
	if t.Abstract {
		return "", fmt.Errorf("history: cannot instantiate abstract type %q", rec.Type)
	}

	// Tool / functional dependency.
	switch {
	case t.FuncDep != nil && rec.Tool == "":
		return "", fmt.Errorf("history: %s requires a tool instance (fd %s)", rec.Type, t.FuncDep.Type)
	case t.FuncDep == nil && rec.Tool != "":
		return "", fmt.Errorf("history: %s takes no tool (it has no functional dependency)", rec.Type)
	case t.FuncDep != nil:
		ti := db.look(rec.Tool)
		if ti == nil {
			return "", fmt.Errorf("history: tool instance %s does not exist", rec.Tool)
		}
		if !db.schema.Satisfies(ti.Type, t.FuncDep.Type) {
			return "", fmt.Errorf("history: tool %s has type %s, which does not satisfy fd %s of %s",
				rec.Tool, ti.Type, t.FuncDep.Type, rec.Type)
		}
	}

	// Inputs / data dependencies.
	seen := make(map[string]bool)
	for _, in := range rec.Inputs {
		d, ok := t.DepByKey(in.Key)
		if !ok || (t.FuncDep != nil && in.Key == t.FuncDep.Key()) {
			return "", fmt.Errorf("history: %s has no data dependency %q", rec.Type, in.Key)
		}
		if seen[in.Key] {
			return "", fmt.Errorf("history: duplicate input for dependency %q", in.Key)
		}
		seen[in.Key] = true
		ii := db.look(in.Inst)
		if ii == nil {
			return "", fmt.Errorf("history: input instance %s does not exist", in.Inst)
		}
		if !db.schema.Satisfies(ii.Type, d.Type) {
			return "", fmt.Errorf("history: input %s has type %s, which does not satisfy dd %s of %s",
				in.Inst, ii.Type, d, rec.Type)
		}
	}
	for _, d := range t.RequiredDeps() {
		if !seen[d.Key()] {
			return "", fmt.Errorf("history: %s is missing required input %q", rec.Type, d.Key())
		}
	}

	db.seq++
	inst := rec // copy
	inst.ID = MakeID(rec.Type, db.seq)
	inst.Created = db.clock()
	inst.Inputs = append([]Input(nil), rec.Inputs...)

	db.insert(&inst)
	db.byType[inst.Type] = append(db.byType[inst.Type], inst.ID)
	db.g.link(db.g.node(inst.ID), &inst)
	for _, o := range db.observers {
		o.OnCommit(&inst)
	}
	return inst.ID, nil
}

// MustRecord is Record but panics on error; for fixtures and examples.
func (db *DB) MustRecord(rec Instance) *Instance {
	inst, err := db.Record(rec)
	if err != nil {
		panic(err)
	}
	return inst
}

// get returns a defensive copy of the stored instance, or nil.
func (db *DB) get(id ID) *Instance {
	in := db.look(id)
	if in == nil {
		return nil
	}
	cp := *in
	cp.Inputs = append([]Input(nil), in.Inputs...)
	return &cp
}

// Get returns a copy of the instance with the given ID, or nil.
func (db *DB) Get(id ID) *Instance {
	return db.get(id)
}

// ArtifactInfo returns the artifact coordinates of an instance — its
// concrete type, blob ref and archive placement — without copying the
// instance's derivation. The execution engine resolves every input of
// every unit through this accessor; Get's defensive copy of the Inputs
// slice is measurable overhead there and none of these fields need it.
func (db *DB) ArtifactInfo(id ID) (typ string, data datastore.Ref, archive string, revision int, ok bool) {
	in := db.look(id)
	if in == nil {
		return "", "", "", 0, false
	}
	return in.Type, in.Data, in.Archive, in.Revision, true
}

// TypeOf returns the concrete entity type of an instance and whether the
// instance exists. It satisfies the flow package's Resolver interface so
// flows can type-check bindings against this database.
func (db *DB) TypeOf(id ID) (string, bool) {
	in := db.look(id)
	if in == nil {
		return "", false
	}
	return in.Type, true
}

// Has reports whether an instance exists.
func (db *DB) Has(id ID) bool {
	return db.look(id) != nil
}

// Seq returns the value of the instance sequence counter: the numeric
// suffix of the most recently recorded instance ID (0 when empty). IDs
// are "Type:seq" with one global counter, so a caller that knows the
// commit order of its future recordings can predict their IDs — the
// execution engine uses this to pre-assign instance IDs at planning
// time and keep them deterministic under out-of-order execution.
func (db *DB) Seq() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// ReserveSeq advances the instance sequence counter by n without
// recording anything, burning the IDs that would have used those
// numbers. The execution engine calls it under graceful degradation
// (exec.ContinueOnError): when a planned construction fails or is
// skipped, its pre-assigned IDs are retired so that every later
// construction still commits under exactly the ID the planner assigned.
// Holes in the sequence are harmless — nothing iterates IDs by number,
// and Restore already resumes after the largest suffix present.
func (db *DB) ReserveSeq(n int) {
	if n <= 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.seq += n
}

// Len returns the number of instances recorded.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.g.ids)
}

// Annotate sets the user-visible name and comment of an instance (the
// annotation facility of §4.1). Stored instances are immutable, so the
// annotated copy replaces the stored one.
func (db *DB) Annotate(id ID, name, comment string) error {
	sh := db.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	in, ok := sh.m[id]
	if !ok {
		return fmt.Errorf("history: no instance %s", id)
	}
	cp := *in
	cp.Name = name
	cp.Comment = comment
	sh.m[id] = &cp
	return nil
}

// InstancesOf returns (copies of) all instances whose type satisfies the
// named type — subtype instances included, matching the schema's
// substitutability — in creation order. This is what an entity browser
// lists for a leaf node.
func (db *DB) InstancesOf(typeName string) []*Instance {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*Instance
	for _, concrete := range db.schema.ConcreteSubtypes(typeName) {
		for _, id := range db.byType[concrete] {
			out = append(out, db.get(id))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Created.Equal(out[j].Created) {
			return out[i].ID < out[j].ID
		}
		return out[i].Created.Before(out[j].Created)
	})
	return out
}

// All returns copies of every instance in creation order.
func (db *DB) All() []*Instance {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Instance, 0, len(db.g.ids))
	for _, id := range db.g.ids {
		out = append(out, db.get(id))
	}
	return out
}

// Newest returns the most recently created instance satisfying the named
// type, or nil if none exists.
func (db *DB) Newest(typeName string) *Instance {
	insts := db.InstancesOf(typeName)
	if len(insts) == 0 {
		return nil
	}
	return insts[len(insts)-1]
}

// DirectDependents returns the instances that used id directly, as a tool
// or as an input, in creation order — once per arc, so a dependent that
// used id under two dependencies is listed twice.
func (db *DB) DirectDependents(id ID) []ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n, ok := db.g.num[id]
	if !ok {
		return nil
	}
	var out []ID
	for i := db.g.fwd.head[n]; i >= 0; i = db.g.fwd.arcs[i].next {
		out = append(out, db.g.ids[db.g.fwd.arcs[i].node])
	}
	return out
}

// Dump renders the database contents for debugging, one instance per
// line, in creation order.
func (db *DB) Dump() string {
	var b strings.Builder
	for _, in := range db.All() {
		fmt.Fprintf(&b, "%-28s tool=%-20s inputs=%v\n", in.ID, in.Tool, in.InputIDs())
	}
	return b.String()
}
