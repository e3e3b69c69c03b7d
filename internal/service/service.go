// Package service exposes the multi-run execution engine as an
// HTTP/JSON flow service — the paper's flow manager as a long-lived
// daemon supervising many designers' flows at once. One engine, one
// shared worker pool, one content-addressed datastore and one result
// cache serve every submission; each run gets its own session (own
// history database) and its own streamed trace.
//
// Endpoints:
//
//	GET  /healthz              liveness
//	GET  /v1/flows             the flow menu (FlowSpec list)
//	POST /v1/runs              submit {"flow": name, "user": name} — or
//	                           {"scenario": {...}, "user": name} to run a
//	                           declarative scenario (internal/scenario)
//	GET  /v1/runs              list runs
//	GET  /v1/runs/{id}         one run's status
//	GET  /v1/runs/{id}/trace   masked JSONL event stream (follows until
//	                           the run finishes)
//	GET  /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N
//	                           derivation/use-dependency chaining over the
//	                           run's history database (provenance.go)
//	POST /v1/runs/{id}/cancel  cancel (DELETE /v1/runs/{id} also works)
//	GET  /metrics              plain-text exposition of the shared fold
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/datastore"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/harness"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config sizes the service.
type Config struct {
	// Workers is the shared pool size (default 4).
	Workers int
	// MaxRuns bounds concurrently executing runs (default
	// exec.DefaultMaxConcurrentRuns).
	MaxRuns int
	// MaxQueue bounds runs queued behind the bound (default
	// exec.DefaultMaxQueuedRuns).
	MaxQueue int
	// MemoEntries sizes the shared result cache (0 = unbounded,
	// negative = disabled).
	MemoEntries int
	// DataDir, when set, makes runs durable: every submission writes a
	// write-ahead log under <DataDir>/runs and New recovers whatever it
	// finds there — finished runs are replayed into the datastore and
	// the result cache, interrupted runs are resumed from their last
	// committed unit. Shutdown checkpoints the datastore to
	// <DataDir>/store.json. Empty = in-memory only (previous behavior).
	DataDir string
}

// runState is the lifecycle of one submission.
type runState string

const (
	stateRunning   runState = "running"
	stateSucceeded runState = "succeeded"
	stateFailed    runState = "failed"
	stateCancelled runState = "cancelled"
)

// runRecord is the server-side state of one submission.
type runRecord struct {
	id       string
	flowName string
	user     string
	log      *eventLog
	cancel   context.CancelFunc
	done     chan struct{}
	// wal/walLog are set on durable runs: the run's write-ahead log and
	// the file beneath it, both closed by the run goroutine at the end.
	wal    *storage.RunWAL
	walLog storage.Log
	// db/chain are the run's provenance surface: the session's history
	// database, whose chaining queries the provenance endpoint answers,
	// and the hash chain of committed derivation records
	// (runs/<id>.chain in durable mode, an in-memory log otherwise).
	// Both nil on runs recovered from a finished log, which have no live
	// session. The chain stays open past the run's end so
	// /provenance?verify=1 works; Shutdown closes it.
	db    *history.DB
	chain *provenance.Chain
	// world is the materialized scenario of a scenario submission,
	// closed by the run goroutine at the end. Nil for menu flows.
	world *harness.World

	mu      sync.Mutex
	state   runState
	res     *exec.Result
	err     error
	started time.Time
	elapsed time.Duration
}

// Server is the flow service: an http.Handler plus the shared engine
// behind it.
type Server struct {
	cfg     Config
	store   *datastore.Store
	engine  *exec.Engine
	cache   *memo.Cache
	metrics *trace.Metrics
	flows   []*FlowSpec
	mux     *http.ServeMux
	dataDir string // durable root; empty = in-memory only

	mu       sync.Mutex
	seq      int
	runs     map[string]*runRecord
	draining bool // Shutdown in progress: submissions get 503
}

// New assembles a server: one hercules-equipped engine over a fresh
// shared datastore. With Config.DataDir set it also recovers every run
// log found there before returning, so the server comes up with its
// pre-crash runs queryable (finished) or running again (interrupted).
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 4
	}
	store := datastore.NewStore()
	host := hercules.NewSessionStore("flowd", store)
	host.SetWorkers(cfg.Workers)
	if cfg.MaxRuns > 0 {
		host.Engine.SetMaxConcurrentRuns(cfg.MaxRuns)
	}
	if cfg.MaxQueue >= 0 {
		host.Engine.SetMaxQueuedRuns(cfg.MaxQueue)
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		engine:  host.Engine,
		metrics: trace.NewMetrics(),
		flows:   specs(),
		mux:     http.NewServeMux(),
		runs:    make(map[string]*runRecord),
	}
	if cfg.MemoEntries >= 0 {
		s.cache = memo.New(cfg.MemoEntries)
		host.SetMemo(s.cache)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/flows", s.handleFlows)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/runs/{id}/provenance", s.handleProvenance)
	s.mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s.metrics.Expose())
	})
	if cfg.DataDir != "" {
		s.dataDir = cfg.DataDir
		if err := s.initDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Engine exposes the shared engine (benchmarks and tests).
func (s *Server) Engine() *exec.Engine { return s.engine }

func (s *Server) spec(name string) *FlowSpec {
	for _, sp := range s.flows {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleFlows(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.flows)
}

// submitRequest is the POST /v1/runs body: either a menu flow by name
// or an inline declarative scenario (internal/scenario), whose schema,
// tools, imports and flow are materialized server-side and run on the
// shared engine via per-run overrides (exec.RunOptions).
type submitRequest struct {
	Flow     string          `json:"flow,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	User     string          `json:"user"`
}

// runView is the JSON shape of one run.
type runView struct {
	ID        string `json:"id"`
	Flow      string `json:"flow"`
	User      string `json:"user"`
	State     string `json:"state"`
	TasksRun  int    `json:"tasks_run,omitempty"`
	CacheHits int    `json:"cache_hits,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
}

func (rec *runRecord) view() runView {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	v := runView{ID: rec.id, Flow: rec.flowName, User: rec.user, State: string(rec.state)}
	if rec.res != nil {
		v.TasksRun = rec.res.TasksRun
		if rec.res.Stats != nil {
			v.CacheHits = rec.res.Stats.CacheHits
		}
	}
	if rec.elapsed > 0 {
		v.ElapsedMS = rec.elapsed.Milliseconds()
	}
	if rec.err != nil {
		v.Error = rec.err.Error()
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Flow != "" && len(req.Scenario) > 0 {
		writeErr(w, http.StatusBadRequest, "submit either a flow name or a scenario, not both")
		return
	}
	if req.User == "" {
		req.User = "designer"
	}
	// Best-effort back-pressure before doing any work; the engine's own
	// admission control is the authoritative gate.
	maxRuns, maxQueue := s.engineBounds()
	if active, queued := s.engine.Runs(); active >= maxRuns && queued >= maxQueue {
		writeErr(w, http.StatusTooManyRequests,
			"engine is busy: %d runs active, %d queued", active, queued)
		return
	}

	var (
		f        *flow.Flow
		target   flow.NodeID
		db       *history.DB
		flowName string
		world    *harness.World
		opts     = &exec.RunOptions{}
	)
	if len(req.Scenario) > 0 {
		// Scenario submission: materialize the declared world (schema,
		// tools, imports, flow) against the shared datastore and run it on
		// the shared engine through per-run overrides.
		sc, err := scenario.Decode(req.Scenario)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "scenario: %v", err)
			return
		}
		m, err := harness.Materialize(sc, s.store)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "scenario: %v", err)
			return
		}
		world, f, target, db = m, m.Flow(), m.Target(), m.DB()
		flowName = "scenario:" + sc.Name
		opts.Schema, opts.Registry = m.Schema(), m.Registry()
		applyRunSpec(sc, opts)
		// The server's shared result cache is keyed by content-addressed
		// derivation alone, which is sound only when every run shares one
		// tool semantics (the menu's standard registry). A scenario brings
		// its own: the same tool type and bytes may be declared failing or
		// fault-instrumented here and clean elsewhere, so sharing would
		// serve another world's result for a unit this world must run.
		// Each scenario run gets a private cache instead.
		opts.Memo = memo.New(0)
	} else {
		spec := s.spec(req.Flow)
		if spec == nil {
			writeErr(w, http.StatusNotFound, "no flow %q (see /v1/flows)", req.Flow)
			return
		}
		// Each submission gets its own session: own history database (no
		// commit-window contention), shared datastore and result cache.
		sess := hercules.NewSessionStore(req.User, s.store)
		if err := sess.Bootstrap(); err != nil {
			writeErr(w, http.StatusInternalServerError, "bootstrap: %v", err)
			return
		}
		var err error
		f, err = buildFlow(spec, sess)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		db = sess.DB
		flowName = spec.Name
		if spec.Delay > 0 {
			d := spec.Delay
			opts.TaskDelay = &d
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		if world != nil {
			world.Close()
		}
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.seq++
	id := fmt.Sprintf("r-%04d", s.seq)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: flowName, user: req.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, world: world}
	rec.started = time.Now()

	// Durable mode: open the run's WAL and make the identity record
	// stable before the submission is acknowledged.
	if s.dataDir != "" {
		if err := s.openRunWAL(rec); err != nil {
			cancel()
			if world != nil {
				world.Close()
			}
			writeErr(w, http.StatusInternalServerError, "run log: %v", err)
			return
		}
	}

	s.mu.Lock()
	if s.draining { // drain began while the WAL was being created
		s.mu.Unlock()
		cancel()
		s.discardRunWAL(rec)
		if world != nil {
			world.Close()
		}
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.runs[id] = rec
	s.mu.Unlock()

	// Attach the provenance surface: index and hash chain observe every
	// commit of the run's session database (existing records — imports,
	// bootstrap — are backfilled first, in commit order).
	if err := s.attachProvenance(rec, db); err != nil {
		cancel()
		s.discardRunWAL(rec)
		s.dropRun(id)
		if world != nil {
			world.Close()
		}
		writeErr(w, http.StatusInternalServerError, "provenance chain: %v", err)
		return
	}

	opts.DB = db
	opts.User = req.User
	opts.Label = id
	opts.Tracer = trace.Multi(rec.log, s.metrics)
	opts.WAL = rec.wal
	s.launch(ctx, rec, f, target, opts)

	writeJSON(w, http.StatusCreated, rec.view())
}

// applyRunSpec carries a submitted scenario's run stanza — failure
// policy, retry budget, per-task timeout, fan-out cap — onto the run's
// options, with the same semantics as the conformance harness. Worker
// and scheduler sweeps stay harness-side: the service runs everything
// on its one shared pool.
func applyRunSpec(sc *scenario.Scenario, o *exec.RunOptions) {
	o.MaxCombos = sc.Run.MaxCombos
	if sc.Run.Policy == "continue" {
		p := exec.ContinueOnError
		o.Policy = &p
	}
	if r := sc.Run.Retry; r != nil {
		o.Retry = &exec.RetryPolicy{
			MaxAttempts: r.Attempts,
			BaseDelay:   time.Duration(r.BaseMicros) * time.Microsecond,
			Seed:        r.Seed,
		}
	}
	if sc.Run.TimeoutMs > 0 {
		d := time.Duration(sc.Run.TimeoutMs) * time.Millisecond
		o.TaskTimeout = &d
	}
}

// dropRun removes a registered run that failed before launch.
func (s *Server) dropRun(id string) {
	s.mu.Lock()
	delete(s.runs, id)
	s.mu.Unlock()
}

// launch starts the run goroutine: execute the flow (or the sub-flow
// rooted at target when non-zero), settle the record's terminal state,
// then release the event log, the WAL and the done channel — the same
// exit path for fresh and resumed runs. The provenance chain is synced
// (durability barrier) but stays open for post-run verification.
func (s *Server) launch(ctx context.Context, rec *runRecord, f *flow.Flow, target flow.NodeID, opts *exec.RunOptions) {
	go func() {
		var res *exec.Result
		var err error
		if target != 0 {
			res, err = s.engine.RunNodeOptions(ctx, f, target, opts)
		} else {
			res, err = s.engine.RunFlowOptions(ctx, f, opts)
		}
		if rec.chain != nil {
			if cerr := rec.chain.Sync(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if rec.wal != nil {
			if werr := rec.wal.Close(); werr != nil && err == nil {
				err = werr
			}
			_ = rec.walLog.Close()
		}
		if rec.world != nil {
			rec.world.Close()
		}
		rec.mu.Lock()
		rec.res, rec.err = res, err
		rec.elapsed = time.Since(rec.started)
		switch {
		case err == nil:
			rec.state = stateSucceeded
		case errors.Is(err, context.Canceled):
			rec.state = stateCancelled
		default:
			rec.state = stateFailed
		}
		rec.mu.Unlock()
		rec.log.close()
		close(rec.done)
	}()
}

func (s *Server) engineBounds() (maxRuns, maxQueue int) {
	maxRuns, maxQueue = s.cfg.MaxRuns, s.cfg.MaxQueue
	if maxRuns <= 0 {
		maxRuns = exec.DefaultMaxConcurrentRuns
	}
	if maxQueue < 0 {
		maxQueue = exec.DefaultMaxQueuedRuns
	}
	return maxRuns, maxQueue
}

func (s *Server) record(id string) *runRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	recs := make([]*runRecord, 0, len(s.runs))
	for _, rec := range s.runs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	views := make([]runView, len(recs))
	for i, rec := range recs {
		views[i] = rec.view()
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.view())
}

// handleTrace streams the run's masked JSONL trace, following until the
// run reaches a terminal state (a finished run's trace returns
// immediately and completely).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		ev, ok := rec.log.next(i)
		if !ok {
			return
		}
		if err := enc.Encode(trace.Mask(ev)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec := s.record(r.PathValue("id"))
	if rec == nil {
		writeErr(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	rec.cancel()
	<-rec.done
	writeJSON(w, http.StatusOK, rec.view())
}
