// Package provenance makes the design history's derivation records
// tamper-evident. The paper's central claim (§3.3/§4.2) is that flow
// traces subsume version trees: backward and forward chaining over
// per-instance derivation records *is* the design-history query.
// history.DB answers those queries itself, over a derivation graph it
// keeps at commit time; this package adds a hash chain over the
// committed records, persisted through internal/storage (chain.go).
//
// The chain attaches to a history.DB as a commit observer
// (db.Observe(...)): the database replays its existing records into
// it and then feeds it every commit, in commit order, under the commit
// lock — so the chain is complete and gap-free no matter when it
// attaches.
package provenance

import "repro/internal/history"

// Index is a detached copy of a database's derivation graph, attached
// with db.Observe; see history.Index.
type Index = history.Index

// NewIndex returns an empty detached index.
func NewIndex() *Index { return history.NewIndex() }
