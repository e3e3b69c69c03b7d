package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datastore"
	"repro/internal/encap"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the traced run (--trace 1). It composes the layers in
// process and measures each from outside, by timing calls into its
// public API: for bulk and interactive it makes the calls
// service.handleSubmit and launch make, in their order; for history it
// drives the same session the end-to-end run drives. Wrappers go only
// where the public API allows one — encap.Registry.Wrap, and the
// storage.Log, history.CommitObserver and trace.Sink interfaces. The
// flowd workloads also time the real flowd's HTTP calls from the client
// for the service.* metrics. The in-process part runs twice, with
// recording on and off; the wall-time difference is the overhead.

// Span nesting levels. Each instant of the traced wall time belongs to
// the deepest open span (recorder.selfTimes), so a level only has to
// be deeper than the level of every span that can enclose it.
const (
	lvRoot    = 0 // the whole traced run
	lvPhase   = 1 // bench.http, bench.replay
	lvRun     = 2 // one submission, design cycle or HTTP call
	lvCall    = 3 // a call into a layer from the composition
	lvExec    = 4 // exec.plan, exec.dispatch, storage.barrier
	lvUnit    = 5 // tools, commit observers, trace sinks
	lvStorage = 6 // log appends and syncs
)

// runTrace is the per-run context every wrapper of one run shares: the
// currently open exec phase is the parent of the unit-level spans.
type runTrace struct {
	rec *recorder
	run string
	cur atomic.Int32 // open span that unit-level spans nest under
	// the exec phase spans, touched by the run's coordinator goroutine
	// (through the sink) and by the caller before and after the run call
	plan, dispatch, barrier int
	waits                   samples // UnitDispatched.WaitMicros
	busyUS, spanUS          float64 // RunFinished busy and elapsed×workers
	events                  []trace.Event
	keepEvents              bool
	planned                 bool // PlanBuilt was emitted
}

func (rt *runTrace) begin(name string, depth int, async bool) int {
	return rt.rec.begin(name, rt.run, int(rt.cur.Load()), depth, async)
}

// tracedSink wraps the run's event sink: it times every Emit and opens
// and closes the exec phase spans at PlanBuilt and RunFinished.
type tracedSink struct {
	rt      *runTrace
	workers int
	next    trace.Sink
}

func (s *tracedSink) Emit(ev trace.Event) {
	rt := s.rt
	switch ev.Kind {
	case trace.KindPlanBuilt:
		rt.planned = true
		rt.rec.end(rt.plan)
		rt.dispatch = rt.rec.begin("exec.dispatch", rt.run, int(rt.cur.Load()), lvExec, false)
		rt.cur.Store(int32(rt.dispatch))
	case trace.KindRunFinished:
		rt.rec.end(rt.dispatch)
		rt.barrier = rt.rec.begin("storage.barrier", rt.run, int(rt.cur.Load()), lvExec, false)
		rt.cur.Store(int32(rt.barrier))
		rt.busyUS += float64(ev.BusyMicros)
		rt.spanUS += float64(ev.ElapsedMicros) * float64(s.workers)
	case trace.KindUnitDispatched:
		if rt.rec.on {
			rt.waits.add(float64(ev.WaitMicros))
		}
	}
	if rt.keepEvents && (ev.Kind == trace.KindUnitCommitted) {
		rt.events = append(rt.events, ev)
	}
	id := rt.begin("trace.emit", lvUnit, false)
	s.next.Emit(ev)
	rt.rec.end(id)
	rt.rec.add("trace.events", 1)
}

// tracedObserver times a commit observer; both provenance observers run
// under the history write lock, on the blocking path.
type tracedObserver struct {
	rt   *runTrace
	name string
	next history.CommitObserver
}

func (o *tracedObserver) OnCommit(inst *history.Instance) {
	id := o.rt.begin(o.name, lvUnit, false)
	o.next.OnCommit(inst)
	o.rt.rec.end(id)
	o.rt.rec.add(o.name+".calls", 1)
}

// commitCounter counts a history database's commits.
type commitCounter struct{ rec *recorder }

func (c commitCounter) OnCommit(*history.Instance) { c.rec.add("history.commits", 1) }

// tracedLog wraps the log under the run WAL or the provenance chain.
// WAL appends and syncs run on the WAL's own goroutines, beside the run
// rather than inside it.
type tracedLog struct {
	storage.Log
	rt   *runTrace
	kind string // "wal" or "chain"
}

func (l *tracedLog) Append(rec []byte) error {
	id := l.rt.begin("storage."+l.kind+"_append", lvStorage, l.kind == "wal")
	err := l.Log.Append(rec)
	l.rt.rec.end(id)
	l.rt.rec.add("storage."+l.kind+"_appends", 1)
	l.rt.rec.add("storage."+l.kind+"_bytes", float64(len(rec)))
	return err
}

func (l *tracedLog) Sync() error {
	id := l.rt.begin("storage."+l.kind+"_sync", lvStorage, l.kind == "wal")
	err := l.Log.Sync()
	l.rt.rec.end(id)
	l.rt.rec.add("storage."+l.kind+"_syncs", 1)
	return err
}

// wrapTools times every tool run of a registry. rt may be nil for the
// shared registry menu flows run on, whose runs a tool cannot tell apart.
func wrapTools(reg *encap.Registry, rec *recorder, rt *runTrace) {
	reg.Wrap(func(_ string, e encap.Encapsulation) encap.Encapsulation {
		return encap.Func(func(r *encap.Request) (encap.Outputs, error) {
			parent, run := -1, ""
			if rt != nil {
				parent, run = int(rt.cur.Load()), rt.run
			}
			id := rec.begin("encap.tool", run, parent, lvUnit, false)
			out, err := e.Run(r)
			rec.end(id)
			rec.add("encap.tool_calls", 1)
			return out, err
		})
	})
}

// composition is the in-process flow service: one engine over a shared
// datastore, result cache and metrics fold, as service.New builds it.
type composition struct {
	e       *env
	rec     *recorder
	dir     string
	store   *datastore.Store
	engine  *exec.Engine
	cache   *memo.Cache
	metrics *trace.Metrics

	mu      sync.Mutex
	caches  []*memo.Cache // private scenario caches
	runs    []*replayRun
	runTrcs []*runTrace
}

// replayRun is what a finished in-process run keeps for queries and
// recovery.
type replayRun struct {
	id    string
	sub   submission
	db    *history.DB
	prov  *provenance.Index
	chain *provenance.Chain
	insts map[int]string // flow node → committed instance
	units int
	// planned is false for a run refused at planning (the fan-out cap):
	// such a run logs no RunFinished.
	planned bool
}

func newComposition(e *env, rec *recorder, dir string) (*composition, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, err
	}
	store := datastore.NewStore()
	host := hercules.NewSessionStore("flowd", store)
	host.SetWorkers(e.workers)
	c := &composition{e: e, rec: rec, dir: dir, store: store, engine: host.Engine,
		cache: memo.New(0), metrics: trace.NewMetrics()}
	host.SetMemo(c.cache)
	wrapTools(host.Registry, rec, nil)
	return c, nil
}

// submitBody is the POST /v1/runs body.
type submitBody struct {
	Flow     string          `json:"flow"`
	Scenario json.RawMessage `json:"scenario"`
	User     string          `json:"user"`
}

// submit runs one submission the way handleSubmit and launch do, with a
// span around each call, and checks its outcome.
func (c *composition) submit(parent int, id string, sub submission, keep bool, t *tally) error {
	rec := c.rec
	rt := &runTrace{rec: rec, run: id, keepEvents: keep, dispatch: -1, barrier: -1}
	top := rec.begin("bench.submit", id, parent, lvRun, false)
	defer rec.end(top)
	rt.cur.Store(int32(top))

	var req submitBody
	if err := json.Unmarshal(sub.body, &req); err != nil {
		return err
	}
	var (
		f      *flow.Flow
		target flow.NodeID
		db     *history.DB
		world  *harness.World
		wal    *storage.RunWAL
		walLog storage.Log
		chain  *provenance.Chain
		err    error
		opts   = &exec.RunOptions{}
	)
	launched := false
	defer func() { // a submission that fails before its run releases what it opened
		if launched {
			return
		}
		if world != nil {
			world.Close()
		}
		if wal != nil {
			_ = wal.Close()
			_ = walLog.Close()
		}
		if chain != nil {
			_ = chain.Close()
		}
	}()
	if len(req.Scenario) > 0 {
		var sc *scenario.Scenario
		rec.do("harness.materialize", id, top, lvCall, func() {
			sc, err = scenario.Decode(req.Scenario)
			if err == nil {
				world, err = harness.Materialize(sc, c.store)
			}
		})
		if err != nil {
			return err
		}
		f, target, db = world.Flow(), world.Target(), world.DB()
		opts.Schema, opts.Registry = world.Schema(), world.Registry()
		wrapTools(world.Registry(), rec, rt)
		applyRunSpec(sc, opts)
		opts.Memo = memo.New(0)
		c.mu.Lock()
		c.caches = append(c.caches, opts.Memo)
		c.mu.Unlock()
	} else {
		rec.do("service.build_flow", id, top, lvCall, func() {
			s := hercules.NewSessionStore(req.User, c.store)
			if err = s.Bootstrap(); err != nil {
				return
			}
			db = s.DB
			f, err = menuFlow(req.Flow, s)
		})
		if err != nil {
			return err
		}
	}

	rec.do("storage.open", id, top, lvCall, func() {
		var fl *storage.FileLog
		fl, err = storage.OpenFile(filepath.Join(c.dir, "runs", id+".wal"))
		if err != nil {
			return
		}
		walLog = &tracedLog{Log: fl, rt: rt, kind: "wal"}
		wal = storage.NewRunWAL(walLog)
		err = wal.AppendMeta(storage.RunMeta{ID: id, Flow: req.Flow, User: req.User})
	})
	if err != nil {
		return err
	}
	prov := provenance.NewIndex()
	obs := rec.begin("provenance.observe", id, top, lvCall, false)
	rt.cur.Store(int32(obs))
	db.Observe(commitCounter{rec})
	db.Observe(&tracedObserver{rt: rt, name: "provenance.index_commit", next: prov})
	fl, err := storage.OpenFile(filepath.Join(c.dir, "runs", id+".chain"))
	if err == nil {
		chain = provenance.NewChain(&tracedLog{Log: fl, rt: rt, kind: "chain"})
		db.Observe(&tracedObserver{rt: rt, name: "provenance.chain_commit", next: chain})
	}
	rec.end(obs)
	if err != nil {
		return err
	}

	launched = true
	opts.DB, opts.User, opts.Label, opts.WAL = db, req.User, id, wal
	opts.Tracer = &tracedSink{rt: rt, workers: c.e.workers, next: trace.Multi(trace.NewBuffer(), c.metrics)}
	run := rec.begin("exec.run", id, top, lvCall, false)
	rt.cur.Store(int32(run))
	rt.plan = rec.begin("exec.plan", id, run, lvExec, false)
	rt.cur.Store(int32(rt.plan))
	var res *exec.Result
	if target != 0 {
		res, err = c.engine.RunNodeOptions(context.Background(), f, target, opts)
	} else {
		res, err = c.engine.RunFlowOptions(context.Background(), f, opts)
	}
	switch {
	case rt.barrier >= 0:
		rec.end(rt.barrier)
	case rt.dispatch >= 0:
		rec.end(rt.dispatch)
	default:
		rec.end(rt.plan)
	}
	rec.end(run)
	rt.cur.Store(int32(top))
	rec.do("provenance.chain_sync", id, top, lvCall, func() {
		if cerr := chain.Sync(); cerr != nil && err == nil {
			err = cerr
		}
	})
	rec.do("storage.close", id, top, lvCall, func() {
		if werr := wal.Close(); werr != nil && err == nil {
			err = werr
		}
		_ = walLog.Close()
	})
	if world != nil {
		rec.do("harness.close", id, top, lvCall, world.Close)
	}

	v := runView{ID: id, State: "succeeded"}
	if res != nil {
		v.TasksRun = res.TasksRun
	}
	if err != nil {
		v.State, v.Error = "failed", err.Error()
	}
	t.checkErr(sub.check(v), "replay "+sub.label)
	rr := &replayRun{id: id, sub: sub, db: db, prov: prov, chain: chain, units: v.TasksRun,
		insts: map[int]string{}, planned: rt.planned}
	for _, ev := range rt.events {
		if len(ev.Nodes) == 1 && len(ev.Insts) == 1 {
			rr.insts[ev.Nodes[0]] = ev.Insts[0]
		}
	}
	c.mu.Lock()
	c.runs = append(c.runs, rr)
	c.runTrcs = append(c.runTrcs, rt)
	c.mu.Unlock()
	return nil
}

// applyRunSpec carries a scenario's run stanza onto the run's options,
// as the service does.
func applyRunSpec(sc *scenario.Scenario, o *exec.RunOptions) {
	o.MaxCombos = sc.Run.MaxCombos
	if sc.Run.Policy == "continue" {
		p := exec.ContinueOnError
		o.Policy = &p
	}
	if r := sc.Run.Retry; r != nil {
		o.Retry = &exec.RetryPolicy{MaxAttempts: r.Attempts,
			BaseDelay: time.Duration(r.BaseMicros) * time.Microsecond, Seed: r.Seed}
	}
	if sc.Run.TimeoutMs > 0 {
		d := time.Duration(sc.Run.TimeoutMs) * time.Millisecond
		o.TaskTimeout = &d
	}
}

// menuFlow builds a menu flow in a session as the service's flow menu
// does: perf is the Performance diamond, wide8 eight independent netlist
// branches.
func menuFlow(name string, s *hercules.Session) (*flow.Flow, error) {
	f := s.NewFlow()
	switch name {
	case "perf":
		perf := f.MustAdd("Performance")
		if err := f.ExpandDown(perf, false); err != nil {
			return nil, err
		}
		cct, _ := f.Node(perf).Dep("Circuit")
		if err := f.ExpandDown(cct, false); err != nil {
			return nil, err
		}
		net, _ := f.Node(cct).Dep("Netlist")
		dm, _ := f.Node(cct).Dep("DeviceModels")
		if err := f.ExpandDown(dm, false); err != nil {
			return nil, err
		}
		if err := f.Specialize(net, "EditedNetlist"); err != nil {
			return nil, err
		}
		if err := f.ExpandDown(net, false); err != nil {
			return nil, err
		}
		for typ, key := range map[string]string{"Simulator": "sim", "Stimuli": "stim.exhaustive3",
			"NetlistEditor": "netEd.fulladder", "DeviceModelEditor": "dmEd.default"} {
			if err := bindLeaf(f, typ, s.Must(key)); err != nil {
				return nil, err
			}
		}
	case "wide8":
		for range 8 {
			b := f.MustAdd("EditedNetlist")
			if err := f.ExpandDown(b, false); err != nil {
				return nil, err
			}
			tn, _ := f.Node(b).Dep("fd")
			if err := f.Bind(tn, s.Must("netEd.fulladder")); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("no menu flow %q", name)
	}
	return f, nil
}

// queries runs n seeded chaining queries against the finished runs'
// provenance indexes, checked against the generator's graph.
func (c *composition) queries(parent int, rng *rand.Rand, n int, t *tally) (answer samples) {
	var targets []*replayRun
	var models []*chainModel
	for _, r := range c.runs {
		g := generatedGraph(r.sub)
		if g != nil && len(r.insts) > 0 {
			targets = append(targets, r)
			models = append(models, newChainModel(g))
		}
	}
	if len(targets) == 0 {
		return nil
	}
	for range n {
		i := rng.Intn(len(targets))
		r, m := targets[i], models[i]
		cell := rng.Intn(len(m.g.Cells))
		back := rng.Intn(2) == 0
		depth := queryDepths[rng.Intn(len(queryDepths))]
		var d *history.Derivation
		var err error
		c.rec.do("provenance.query", r.id, parent, lvCall, func() {
			if back {
				d, err = r.prov.Backchain(history.ID(r.insts[cellNode(cell)]), depth)
			} else {
				d, err = r.prov.Forwardchain(history.ID(r.insts[cellNode(cell)]), depth)
			}
		})
		want := m.count(cell, back, depth)
		t.check(err == nil && len(d.Nodes) == want, "in-process query %s cell %d back=%v depth %d: %v, want %d nodes", r.id, cell, back, depth, err, want)
		if d != nil {
			answer.add(float64(len(d.Nodes)))
		}
	}
	return answer
}

// generatedGraph regenerates a generated submission's graph (nil for
// other submissions).
func generatedGraph(sub submission) *flowgen.Graph {
	var body struct {
		Scenario struct {
			Generate *flowgen.Spec `json:"generate"`
		} `json:"scenario"`
	}
	if json.Unmarshal(sub.body, &body) != nil || body.Scenario.Generate == nil {
		return nil
	}
	g, err := flowgen.Generate(*body.Scenario.Generate)
	if err != nil {
		return nil
	}
	return g
}

// recoverRuns reads every run's WAL and chain back as flowd's boot does:
// RecoverRun and Replay into a fresh datastore and cache, then VerifyLog
// on the chain.
func (c *composition) recoverRuns(parent int, t *tally) (ms float64, err error) {
	store, cache := datastore.NewStore(), memo.New(0)
	for _, r := range c.runs {
		if cerr := r.chain.Close(); cerr != nil {
			return 0, cerr
		}
	}
	t0 := time.Now()
	for _, r := range c.runs {
		c.rec.do("storage.recover", r.id, parent, lvCall, func() {
			var l *storage.FileLog
			l, err = storage.OpenFile(filepath.Join(c.dir, "runs", r.id+".wal"))
			if err != nil {
				return
			}
			var rc *storage.Recovered
			rc, err = storage.RecoverRun(l)
			if err == nil {
				t.check(rc.Finished || !r.planned, "recovered %s: no RunFinished", r.id)
				err = rc.Replay(store, cache)
			}
			l.Close()
			if err != nil {
				return
			}
			l, err = storage.OpenFile(filepath.Join(c.dir, "runs", r.id+".chain"))
			if err != nil {
				return
			}
			_, verr := provenance.VerifyLog(l)
			t.checkErr(verr, "chain "+r.id)
			err = l.Close()
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Microseconds()) / 1000, nil
}

// runTraced runs the workload's traced composition and reports the
// per-layer metrics.
func runTraced(e *env) (*report, error) {
	if e.workload == "history" {
		return tracedHistory(e)
	}
	return tracedFlowd(e)
}

// layerTotals are the raw sums the per-layer metrics derive from.
type layerTotals struct {
	units                float64
	runs                 int
	waits                samples
	busyUS, spanUS       float64
	answer, query        samples
	recoverMS            float64
	files                int
	instances            float64
	caches               []*memo.Cache
	store                *datastore.Store
	mem0, mem1           runtime.MemStats
	submitMS, queryBytes samples
	streamPerUnit        float64
	refused              float64
	rssPerRunKB          float64
	lag                  samples
	inflightMax          int
	retraces, rebuilt    samples
	overbuilt            int
	wallOn, wallOff      time.Duration
	root                 int
	stale, planRetrace   samples
}

// isBenchSpan reports whether a span is the benchmark's own (the root,
// a phase or one submission) rather than a layer's: time such a span
// holds as its own is time no layer accounts for.
func isBenchSpan(name string) bool { return name == "bench" || strings.HasPrefix(name, "bench.") }

// layerReport turns a traced run into the per-layer metrics.
func layerReport(rep *report, rec *recorder, x *layerTotals) {
	self := rec.selfTimes(x.root)
	var rootDur, dispatchSelf, benchSelf int64
	for id, ns := range self {
		switch name := rec.spans[id].name; {
		case name == "exec.dispatch":
			dispatchSelf += ns
		case isBenchSpan(name):
			benchSelf += ns
		}
	}
	rs := rec.spans[x.root]
	rootDur = rs.end - rs.start
	perUnit := func(v float64) float64 {
		if x.units == 0 {
			return 0
		}
		return v / x.units
	}
	meanUS := func(name string) float64 { return rec.durations(name).mean() * 1000 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rep.set("service.submit_ms.p50", x.submitMS.pct(50), fmt.Sprintf("median of %d POSTs", len(x.submitMS)))
	rep.set("service.stream_bytes_per_unit", x.streamPerUnit, "")
	rep.set("service.query_bytes.p50", x.queryBytes.pct(50), fmt.Sprintf("median of %d", len(x.queryBytes)))
	rep.set("service.refused", x.refused, "")
	rep.set("service.rss_per_run_kb", x.rssPerRunKB, "")
	rep.set("harness.materialize_ms.p50", rec.durations("harness.materialize").pct(50), "")
	rep.set("exec.plan_ms.p50", rec.durations("exec.plan").pct(50), "")
	rep.set("exec.dispatch_ms.p50", rec.durations("exec.dispatch").pct(50), "")
	rep.set("exec.queue_wait_us.p50", x.waits.pct(50), fmt.Sprintf("median of %d", len(x.waits)))
	rep.set("exec.queue_wait_us.p99", x.waits.pct(99), "")
	rep.set("exec.worker_busy_frac", ratio(x.busyUS, x.spanUS), "")
	rep.set("exec.self_s", float64(dispatchSelf)/1e9, "")
	rep.set("exec.retrace_ms.p50", x.retraces.pct(50), fmt.Sprintf("median of %d", len(x.retraces)))
	rep.set("exec.retrace_rebuilt.p50", x.rebuilt.pct(50), "")
	rep.set("exec.retrace_rebuilt.max", x.rebuilt.pct(100), "")
	rep.set("exec.retrace_overbuilt", float64(x.overbuilt), "retraces rebuilding more than their design's first")
	rep.set("encap.tool_calls", rec.count["encap.tool_calls"], "")
	rep.set("encap.tool_s", rec.durations("encap.tool").sum()/1000, "")
	rep.set("history.commits", rec.count["history.commits"], "")
	rep.set("history.instances", x.instances, "")
	rep.set("history.stale_ms.p50", x.stale.pct(50), "")
	rep.set("history.plan_retrace_ms.p50", x.planRetrace.pct(50), "")
	rep.set("provenance.index_commit_us", meanUS("provenance.index_commit"), "mean per commit")
	rep.set("provenance.chain_commit_us", meanUS("provenance.chain_commit"), "mean per commit")
	rep.set("provenance.chain_sync_ms.p50", rec.durations("provenance.chain_sync").pct(50), "")
	rep.set("provenance.query_us.p50", x.query.pct(50)*1000, fmt.Sprintf("median of %d", len(x.query)))
	rep.set("provenance.answer_nodes.p50", x.answer.pct(50), "")
	rep.set("storage.wal_appends", rec.count["storage.wal_appends"], "")
	rep.set("storage.wal_bytes_per_unit", perUnit(rec.count["storage.wal_bytes"]), "")
	rep.set("storage.chain_bytes_per_unit", perUnit(rec.count["storage.chain_bytes"]), "")
	rep.set("storage.wal_append_s", rec.durations("storage.wal_append").sum()/1000, "WAL writer goroutine")
	rep.set("storage.wal_syncs", rec.count["storage.wal_syncs"], "")
	rep.set("storage.wal_sync_ms.p50", rec.durations("storage.wal_sync").pct(50), "")
	rep.set("storage.barrier_ms.p50", rec.durations("storage.barrier").pct(50), "")
	rep.set("storage.files_per_run", ratio(float64(x.files), float64(x.runs)), "")
	rep.set("storage.recover_ms", x.recoverMS, "")
	var hits, lookups float64
	for _, c := range x.caches {
		st := c.Stats()
		hits += float64(st.Hits)
		lookups += float64(st.Hits + st.Misses)
	}
	rep.set("memo.lookups", lookups, "")
	rep.set("memo.hit_ratio", ratio(hits, lookups), "")
	rep.set("trace.events_per_unit", perUnit(rec.count["trace.events"]), "")
	rep.set("trace.emit_us", meanUS("trace.emit"), "mean per event")
	blobs, bytes := 0, 0
	if x.store != nil {
		blobs, bytes = x.store.Len(), x.store.TotalBytes()
	}
	rep.set("datastore.blobs", float64(blobs), "")
	rep.set("datastore.bytes", float64(bytes), "")
	rep.set("runtime.alloc_bytes_per_unit", perUnit(float64(x.mem1.TotalAlloc-x.mem0.TotalAlloc)), "")
	rep.set("runtime.gc_cycles", float64(x.mem1.NumGC-x.mem0.NumGC), "")
	rep.set("runtime.gc_pause_ms", float64(x.mem1.PauseTotalNs-x.mem0.PauseTotalNs)/1e6, "")
	_, lag := x.lag.upper()
	rep.set("loadgen.lag_ms.p99", lag, fmt.Sprintf("of %d", len(x.lag)))
	rep.set("loadgen.inflight_max", float64(x.inflightMax), "")
	rep.set("bench.unattributed_frac", ratio(float64(benchSelf), float64(rootDur)), fmt.Sprintf("of %.3fs traced", float64(rootDur)/1e9))
	rep.set("bench.trace_overhead_pct", 100*ratio(float64(x.wallOn-x.wallOff), float64(x.wallOff)),
		fmt.Sprintf("replay %.3fs traced, %.3fs untraced", x.wallOn.Seconds(), x.wallOff.Seconds()))
}

// replay runs the flowd workload's submissions through an in-process
// composition: bulk one after another, interactive at the nominal rate.
func replay(e *env, rec *recorder, dir string, subs []submission, rate float64, rng *rand.Rand, x *layerTotals, t *tally) (time.Duration, error) {
	c, err := newComposition(e, rec, dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	phase := rec.begin("bench.replay", "", x.root, lvPhase, false)
	keep := e.workload == "bulk"
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i, sub := range subs {
		id := fmt.Sprintf("r-%04d", i+1)
		if rate == 0 {
			if err := c.submit(phase, id, sub, keep, t); err != nil {
				return 0, err
			}
			continue
		}
		if w := time.Until(t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.submit(phase, id, sub, true, t); err != nil {
				mu.Lock()
				firstErr = errors.Join(firstErr, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	answer := c.queries(phase, rng, 500, t)
	ms, err := c.recoverRuns(phase, t)
	if err != nil {
		return 0, err
	}
	rec.end(phase)
	wall := time.Since(t0)
	if !rec.on {
		return wall, nil
	}
	x.answer, x.query, x.recoverMS = answer, rec.durations("provenance.query"), ms
	x.caches = append(c.caches, c.cache)
	x.store = c.store
	x.runs = len(c.runs)
	for _, r := range c.runs {
		x.units += float64(r.units)
		x.instances += float64(r.db.Len())
	}
	for _, rt := range c.runTrcs {
		x.waits = append(x.waits, rt.waits...)
		x.busyUS += rt.busyUS
		x.spanUS += rt.spanUS
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "runs")); err == nil {
		x.files = len(ents)
	}
	return wall, nil
}

// tracedFlowd is the traced run of bulk and interactive: the
// submissions replayed in process with recording off, then the real
// flowd's HTTP calls timed from the client, then the same submissions
// replayed in process with recording on. The untraced replay goes
// first, so it does not run on the traced replay's heap.
func tracedFlowd(e *env) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(e.seed))
	fd, _, err := setupFlowd(e, &rep.tally)
	if err != nil {
		return nil, err
	}
	a := newAPI(fd.base)
	defer a.close()
	var in []*bulkInput
	var subs []submission
	var st step
	rate := 0.0
	if e.workload == "bulk" {
		if in, err = bulkInputs(e, rng, bulkRuns); err != nil {
			return nil, err
		}
		for _, b := range in {
			subs = append(subs, b.sub)
		}
	} else {
		flows, err := a.flows()
		if err != nil {
			return nil, err
		}
		corpus, err := corpusSubmissions(e.corpus)
		if err != nil {
			return nil, err
		}
		m, err := newMix(rng.Int63(), flows, corpus)
		if err != nil {
			return nil, err
		}
		rate = nominalRate
		st = step{rate, time.Duration(float64(e.nominalRuns()/5) / rate * float64(time.Second))}
		all, err := drawSteps(m, []step{st})
		if err != nil {
			return nil, err
		}
		subs = all[0]
	}
	x := &layerTotals{}
	runtime.GC()
	x.wallOff, err = replay(e, newRecorder(false), filepath.Join(e.scratch, "replay-off"), subs, rate, rand.New(rand.NewSource(e.seed+1)), x, &rep.tally)
	if err != nil {
		return nil, err
	}

	rec := newRecorder(true)
	x.root = rec.begin("bench", "", -1, lvRoot, false)
	phase := rec.begin("bench.http", "", x.root, lvPhase, false)
	a.rec, a.parent = rec, phase
	rss0 := fd.rssMB()
	if e.workload == "bulk" {
		_, units, stream := bulkSubmit(a, in, &rep.tally)
		if units > 0 {
			x.streamPerUnit = float64(stream) / float64(units)
		}
		_, x.queryBytes = queryLoop(a, rng, in, e.phase(0.1), &rep.tally)
		x.inflightMax = 1
	} else {
		r := openLoop(fd.base, st, subs, rec, phase)
		for _, o := range r.outcomes {
			rep.checkErr(o.err, "interactive run "+o.sub.label)
			x.lag.addDur(o.lag)
		}
		x.inflightMax = r.inflightMax
		targets, err := smallQueryTargets(a, []*stepResult{r}, 16)
		if err != nil {
			return nil, err
		}
		_, x.queryBytes = queryLoop(a, rng, targets, e.phase(0.05), &rep.tally)
	}
	x.rssPerRunKB = (fd.rssMB() - rss0) * 1024 / float64(len(subs))
	x.submitMS = rec.durations("service.submit")
	x.refused = rec.count["service.refused"]
	rec.end(phase)
	if err := fd.stop(); err != nil {
		return nil, err
	}

	runtime.GC()
	runtime.ReadMemStats(&x.mem0)
	x.wallOn, err = replay(e, rec, filepath.Join(e.scratch, "replay-on"), subs, rate, rand.New(rand.NewSource(e.seed+1)), x, &rep.tally)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&x.mem1)
	rec.end(x.root)
	layerReport(rep, rec, x)
	return rep, nil
}

// tracedHistory is the traced run of history: a quarter of the designs,
// every session call timed, once with recording on and once off.
func tracedHistory(e *env) (*report, error) {
	rep := newReport()
	x := &layerTotals{}
	small := *e
	small.seconds = max(1, e.seconds/4)
	pass := func(rec *recorder, root int) (time.Duration, *historyResult, error) {
		rt := &runTrace{rec: rec}
		hooks := &historyHooks{observeDB: func(db *history.DB) { db.Observe(commitCounter{rec}) }}
		s, _, err := historySession(hooks, &rep.tally)
		if err != nil {
			return 0, nil, err
		}
		wrapTools(s.Registry, rec, rt)
		hooks.run = func(name string, fn func()) {
			prev := rt.cur.Load()
			id := rec.begin(name, "", int(prev), lvCall, false)
			rt.cur.Store(int32(id))
			fn()
			rt.cur.Store(prev)
			rec.end(id)
		}
		t0 := time.Now()
		phase := rec.begin("bench.replay", "", root, lvPhase, false)
		rt.cur.Store(int32(phase))
		hr, err := historyLoop(&small, s, rand.New(rand.NewSource(e.seed)), hooks, &rep.tally)
		rec.end(phase)
		return time.Since(t0), hr, err
	}
	// The untraced pass goes first, so neither pass inherits the other's
	// heap. A throwaway pass before both grows the process to its working
	// size; without it the first pass pays for that alone and reads 5–28%
	// slower than the traced one.
	var err error
	if _, _, err = pass(newRecorder(false), -1); err != nil {
		return nil, err
	}
	runtime.GC()
	if x.wallOff, _, err = pass(newRecorder(false), -1); err != nil {
		return nil, err
	}
	rec := newRecorder(true)
	x.root = rec.begin("bench", "", -1, lvRoot, false)
	runtime.GC()
	runtime.ReadMemStats(&x.mem0)
	wall, hr, err := pass(rec, x.root)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&x.mem1)
	rec.end(x.root)
	x.wallOn = wall
	x.retraces, x.rebuilt, x.overbuilt = rec.durations("exec.retrace"), hr.rebuilt, hr.overbuilt
	x.stale, x.planRetrace = rec.durations("history.stale"), rec.durations("history.plan_retrace")
	x.units = rec.count["encap.tool_calls"]
	x.instances = float64(hr.s.DB.Len())
	x.store = hr.s.Store
	x.runs = len(hr.designs)
	layerReport(rep, rec, x)
	return rep, nil
}
