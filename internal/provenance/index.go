// Package provenance holds commit observers over the design history's
// derivation records. The paper's central claim (§3.3/§4.2) is that
// flow traces subsume version trees: backward and forward chaining over
// per-instance derivation records *is* the design-history query.
// history.DB answers those queries itself, over a derivation graph it
// keeps at commit time; Index is a detached copy of that graph, and
// Chain (chain.go) a standalone hash-linked log of the committed
// records. A run's tamper-evident provenance record is its hash-linked
// WAL (internal/storage); the end-to-end benchmark still composes a
// Chain beside it.
//
// Both attach to a history.DB as commit observers (db.Observe(...)):
// the database replays its existing records into them and then feeds
// them every commit, in commit order, under the commit lock — so they
// are complete and gap-free no matter when they attach.
package provenance

import "repro/internal/history"

// Index is a detached copy of a database's derivation graph, attached
// with db.Observe; see history.Index.
type Index = history.Index

// NewIndex returns an empty detached index.
func NewIndex() *Index { return history.NewIndex() }
