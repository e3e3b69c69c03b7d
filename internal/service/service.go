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
//	GET  /v1/runs/{id}/provenance?inst=ID&dir=back|fwd&depth=N[&verify=1]
//	                           derivation/use-dependency chaining over the
//	                           run's history database; verify=1 also
//	                           checks its WAL's hash links (provenance.go)
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
	// walHead is the WAL's last record digest when its writer closed
	// (under mu; Genesis while it writes): what verify=1 expects.
	walHead storage.Digest
	// db is the session's history database, whose chaining queries the
	// provenance endpoint answers. Nil on runs recovered from a finished
	// log, which have no live session.
	db *history.DB
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

	meta := storage.RunMeta{Flow: req.Flow, User: req.User, Scenario: req.Scenario}
	b, err := s.build(meta)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownFlow):
			writeErr(w, http.StatusNotFound, "%v (see /v1/flows)", err)
		case len(req.Scenario) > 0:
			writeErr(w, http.StatusBadRequest, "%v", err)
		default:
			writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	meta.Flow = b.name
	world := b.world

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
	rec := &runRecord{id: id, flowName: b.name, user: req.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, world: world, db: b.opts.DB}
	rec.started = time.Now()

	// Durable mode: open the run's WAL and make the identity record
	// stable before the submission is acknowledged.
	if s.dataDir != "" {
		meta.ID = id
		if err := s.openRunWAL(rec, meta); err != nil {
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

	b.opts.Label = id
	b.opts.Tracer = trace.Multi(rec.log, s.metrics)
	b.opts.WAL = rec.wal
	s.launch(ctx, rec, b.f, b.target, b.opts)

	writeJSON(w, http.StatusCreated, rec.view())
}

// errUnknownFlow marks a menu flow name the service does not offer.
var errUnknownFlow = errors.New("unknown flow")

// built is a run ready to launch: its flow (or the sub-flow rooted at
// target when non-zero), the options it runs with — opts.DB is the
// run's own history database — and, for a scenario, the materialized
// world the run goroutine closes.
type built struct {
	name   string
	f      *flow.Flow
	target flow.NodeID
	world  *harness.World
	opts   *exec.RunOptions
}

// build constructs a run from its identity record alone: a scenario
// submission materializes its declared world (schema, tools, imports,
// flow) against the shared datastore and runs on the shared engine
// through per-run overrides; a menu flow is built in a fresh session of
// the submitting user (own history database, shared datastore and
// result cache). Submission and boot-time resume both call it, which is
// what makes a run's WAL, through its RunMeta and replanning, determine
// every derivation the run commits.
func (s *Server) build(m storage.RunMeta) (*built, error) {
	b := &built{opts: &exec.RunOptions{User: m.User}}
	if len(m.Scenario) > 0 {
		sc, err := scenario.Decode(m.Scenario)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		world, err := harness.Materialize(sc, s.store)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		b.name, b.world, b.f, b.target = "scenario:"+sc.Name, world, world.Flow(), world.Target()
		b.opts.DB, b.opts.Schema, b.opts.Registry = world.DB(), world.Schema(), world.Registry()
		applyRunSpec(sc, b.opts)
		// The server's shared result cache is keyed by content-addressed
		// derivation alone, which is sound only when every run shares one
		// tool semantics (the menu's standard registry). A scenario brings
		// its own: the same tool type and bytes may be declared failing or
		// fault-instrumented here and clean elsewhere, so sharing would
		// serve another world's result for a unit this world must run.
		// Each scenario run gets a private cache instead.
		b.opts.Memo = memo.New(0)
		return b, nil
	}
	spec := s.spec(m.Flow)
	if spec == nil {
		return nil, fmt.Errorf("%w %q", errUnknownFlow, m.Flow)
	}
	sess := hercules.NewSessionStore(m.User, s.store)
	if err := sess.Bootstrap(); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	f, err := buildFlow(spec, sess)
	if err != nil {
		return nil, err
	}
	b.name, b.f, b.opts.DB = spec.Name, f, sess.DB
	if spec.Delay > 0 {
		d := spec.Delay
		b.opts.TaskDelay = &d
	}
	return b, nil
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

// launch starts the run goroutine: execute the flow (or the sub-flow
// rooted at target when non-zero), settle the record's terminal state,
// then release the event log, the WAL and the done channel — the same
// exit path for fresh and resumed runs.
func (s *Server) launch(ctx context.Context, rec *runRecord, f *flow.Flow, target flow.NodeID, opts *exec.RunOptions) {
	go func() {
		var res *exec.Result
		var err error
		if target != 0 {
			res, err = s.engine.RunNodeOptions(ctx, f, target, opts)
		} else {
			res, err = s.engine.RunFlowOptions(ctx, f, opts)
		}
		var walHead storage.Digest
		if rec.wal != nil {
			if werr := rec.wal.Close(); werr != nil && err == nil {
				err = werr
			}
			_ = rec.walLog.Close()
			walHead = rec.wal.Head()
		}
		if rec.world != nil {
			rec.world.Close()
		}
		rec.mu.Lock()
		rec.walHead = walHead
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
