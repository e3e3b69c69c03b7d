package service

import (
	"net/http"
	"strconv"

	"repro/internal/history"
)

// This file is the HTTP face of the provenance layer: every run carries
// its session's history database, and
//
//	GET /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//
// answers the paper's design-history query — backward chaining ("what
// was this made from") and forward chaining ("what was made from this")
// — as a walk over the database's derivation graph.
// depth bounds the chaining levels (absent or negative = unbounded).
// Adding verify=1 also checks the hash links of the run's WAL end to
// end (storage.RecoverRun, the same check boot recovery and flowd
// -verify-provenance run) and reports the verdict inline; a run without
// a WAL (no DataDir) answers 409.

// provenanceEdge is one derivation arc in the response: Parent was
// created using Child. Kind is the paper's arc label — "fd" for the
// tool arc, "dd" for a data input (with its dependency key).
type provenanceEdge struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	Kind   string `json:"kind"`
	Key    string `json:"key,omitempty"`
}

// chainVerdict is the inline check of the run WAL's hash links
// (verify=1): how many records it holds and whether they verify.
type chainVerdict struct {
	Records  int    `json:"records"`
	Verified bool   `json:"verified"`
	Error    string `json:"error,omitempty"`
}

// provenanceView is the GET /v1/runs/{id}/provenance response.
type provenanceView struct {
	Run   string           `json:"run"`
	Root  string           `json:"root"`
	Dir   string           `json:"dir"`
	Depth int              `json:"depth"`
	Nodes []string         `json:"nodes"`
	Edges []provenanceEdge `json:"edges"`
	Chain *chainVerdict    `json:"chain,omitempty"`
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	if rec.db == nil {
		writeErr(w, http.StatusConflict,
			"run %q was recovered from a finished log and has no live history database; use flowd -verify-provenance to check its log", rec.id)
		return
	}
	q := r.URL.Query()
	verify := q.Get("verify") == "1"
	if verify && s.dataDir == "" {
		writeErr(w, http.StatusConflict,
			"run %q has no write-ahead log to verify: the service keeps runs in memory only (start flowd with -data-dir)", rec.id)
		return
	}
	inst := q.Get("inst")
	if inst == "" {
		writeErr(w, http.StatusBadRequest, "missing inst parameter (an instance ID, e.g. Netlist:3)")
		return
	}
	dir := q.Get("dir")
	if dir == "" {
		dir = "back"
	}
	depth := -1
	if d := q.Get("depth"); d != "" {
		n, err := strconv.Atoi(d)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad depth %q: %v", d, err)
			return
		}
		depth = n
	}
	var der *history.Derivation
	var err error
	switch dir {
	case "back":
		der, err = rec.db.Backchain(history.ID(inst), depth)
	case "fwd":
		der, err = rec.db.Forwardchain(history.ID(inst), depth)
	default:
		writeErr(w, http.StatusBadRequest, "dir must be back or fwd, not %q", dir)
		return
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	view := provenanceView{
		Run: rec.id, Root: string(der.Root), Dir: dir, Depth: depth,
		Nodes: make([]string, len(der.Nodes)),
		Edges: make([]provenanceEdge, len(der.Edges)),
	}
	for i, n := range der.Nodes {
		view.Nodes[i] = string(n)
	}
	for i, e := range der.Edges {
		view.Edges[i] = provenanceEdge{
			Parent: string(e.Parent), Child: string(e.Child),
			Kind: e.Kind.String(), Key: e.Key,
		}
	}
	if verify {
		v := &chainVerdict{}
		var verr error
		if v.Records, verr = s.verifyRunWAL(rec); verr != nil {
			v.Error = verr.Error()
		} else {
			v.Verified = true
		}
		view.Chain = v
	}
	writeJSON(w, http.StatusOK, view)
}
