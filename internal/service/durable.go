package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/provenance"
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the service half of the durability layer (Config.
// DataDir). Layout under the data directory:
//
//	runs/<id>.wal   one write-ahead log per submission (the run's
//	                trace plus each committed unit's artifacts)
//	runs/<id>.chain hash-chained derivation records of the run's
//	                session database (provenance.Chain; verified by
//	                flowd -verify-provenance)
//	store.json      datastore checkpoint, written by Shutdown
//
// Boot recovery (initDurable, from New) reads every WAL back:
//
//   - A log containing RunFinished is a completed run — possibly a
//     failed or cancelled one. Its committed artifacts and derivation
//     keys are replayed into the shared datastore and result cache, and
//     the run reappears fully queryable (status, complete trace) in a
//     terminal state. This is what makes the memo survive restarts: a
//     warm resubmission after a clean reboot hits on every unit.
//
//   - A log without RunFinished is an interrupted run (crash, kill -9).
//     The service rebuilds the submission's session and flow from the
//     identity record, rewinds the log to its resumable prefix and
//     relaunches the run with exec.RunOptions.Resume: the executor
//     restores every fully-committed unit from the log (re-recording
//     history and re-feeding datastore and memo through its normal
//     committer) and re-executes only the rest, appending to the same
//     WAL with continuous event sequence numbers. Nothing is replayed
//     here out-of-band — the resumed run is the single commit path.
//
// Shutdown is the graceful half: stop admitting, drain active runs
// (their own goroutines flush and close each WAL), abort stragglers at
// the deadline, checkpoint the datastore.

// openRunWAL creates a fresh submission's log under <dataDir>/runs and
// makes the identity record durable.
func (s *Server) openRunWAL(rec *runRecord) error {
	l, err := storage.OpenFile(filepath.Join(s.dataDir, "runs", rec.id+".wal"))
	if err != nil {
		return err
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(storage.RunMeta{ID: rec.id, Flow: rec.flowName, User: rec.user}); err != nil {
		_ = w.Close()
		_ = l.Close()
		return err
	}
	rec.wal, rec.walLog = w, l
	return nil
}

// discardRunWAL abandons a WAL (and provenance chain, if one was
// attached) opened for a run that was never launched (admission lost a
// race with Shutdown).
func (s *Server) discardRunWAL(rec *runRecord) {
	if rec.chain != nil {
		_ = rec.chain.Close()
		rec.chain = nil
	}
	if rec.wal == nil {
		return
	}
	_ = rec.wal.Close()
	_ = rec.walLog.Close()
}

// chainPath is the run's provenance-chain log under the data dir.
func (s *Server) chainPath(id string) string {
	return filepath.Join(s.dataDir, "runs", id+".chain")
}

// attachProvenance wires the run's provenance surface to its session
// database, which answers the chaining queries itself: a hash chain —
// file-backed in durable mode, in-memory otherwise. Observe backfills
// it with every record already committed (imports, bootstrap), then
// feeds it each live commit in order.
func (s *Server) attachProvenance(rec *runRecord, db *history.DB) error {
	rec.db = db
	var l storage.Log
	if s.dataDir != "" {
		fl, err := storage.OpenFile(s.chainPath(rec.id))
		if err != nil {
			return err
		}
		l = fl
	} else {
		l = storage.NewMemLog()
	}
	rec.chain = provenance.NewChain(l)
	db.Observe(rec.chain)
	return nil
}

// resetRunChain prepares an interrupted run's chain for resume. The
// resumed run is the single commit path — the executor re-records every
// restored unit through the session database — so the chain is rebuilt
// alongside it rather than appended to (appending would duplicate every
// re-committed record). The pre-crash chain is verified first: resuming
// on top of tampered provenance is refused at boot.
func (s *Server) resetRunChain(rec *runRecord) error {
	path := s.chainPath(rec.id)
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	_, verr := provenance.VerifyLog(l)
	cerr := l.Close()
	if verr != nil {
		return fmt.Errorf("pre-crash chain %s: %w", filepath.Base(path), verr)
	}
	if cerr != nil {
		return cerr
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	fl, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	rec.chain = provenance.NewChain(fl)
	return nil
}

// initDurable restores the server's durable state: the datastore
// checkpoint first, then every run log under <dataDir>/runs in id
// order.
func (s *Server) initDurable() error {
	runsDir := filepath.Join(s.dataDir, "runs")
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return fmt.Errorf("service: data dir: %w", err)
	}
	if f, err := os.Open(filepath.Join(s.dataDir, "store.json")); err == nil {
		rerr := s.store.Restore(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("service: datastore checkpoint: %w", rerr)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	paths, err := filepath.Glob(filepath.Join(runsDir, "*.wal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.recoverRunFile(p); err != nil {
			return fmt.Errorf("service: recovering %s: %w", filepath.Base(p), err)
		}
	}
	return nil
}

// recoverRunFile recovers one WAL: register it terminal if it
// finished, resume it if it did not.
func (s *Server) recoverRunFile(path string) error {
	l, err := storage.OpenFile(path)
	if err != nil {
		return err
	}
	rc, err := storage.RecoverRun(l)
	if err != nil {
		_ = l.Close()
		return err
	}
	id := strings.TrimSuffix(filepath.Base(path), ".wal")
	if rc.Meta != nil && rc.Meta.ID != "" {
		id = rc.Meta.ID
	}
	s.noteSeq(id)
	if rc.Finished {
		return s.registerFinished(id, rc, l)
	}
	if rc.Meta == nil {
		// The crash beat the identity record to disk: there is nothing
		// to rebuild the run from, and nothing was committed.
		return l.Close()
	}
	return s.resumeRun(id, rc, l)
}

// registerFinished re-registers a completed run from its log: replay
// its committed payloads into the datastore and the result cache, then
// surface it with a closed, fully pre-seeded event stream. The terminal
// state and the task and cache-hit counts are derived from the recorded
// events (the original error text and the elapsed time are not
// persisted; a failed or aborted run recovers as "failed").
func (s *Server) registerFinished(id string, rc *storage.Recovered, l storage.Log) error {
	if err := rc.Replay(s.store, s.cache); err != nil {
		_ = l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	rec := &runRecord{id: id, cancel: func() {}, done: make(chan struct{}),
		log: newEventLog(), state: stateSucceeded}
	if rc.Meta != nil {
		rec.flowName, rec.user = rc.Meta.Flow, rc.Meta.User
	}
	hits := 0
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
		if ev.Kind == trace.KindUnitCacheHit {
			hits++
		}
	}
	fin := rc.Events[len(rc.Events)-1]
	if fin.Failed > 0 || fin.Skipped > 0 || fin.Committed < fin.Units {
		rec.state = stateFailed
	}
	// RunFinished.Committed is the run's Result.TasksRun.
	rec.res = &exec.Result{TasksRun: fin.Committed, Stats: &exec.Stats{CacheHits: hits}}
	rec.log.close()
	close(rec.done)
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	return nil
}

// resumeRun relaunches an interrupted run from its recovered prefix.
// The session is rebuilt exactly as handleSubmit built it, so the
// deterministic replan pre-assigns the instance IDs the log recorded —
// the executor verifies every one before committing. The event stream
// is pre-seeded with the prefix and the fresh suffix continues its
// sequence numbers, so a trace reader sees one gapless run.
func (s *Server) resumeRun(id string, rc *storage.Recovered, l storage.Log) error {
	spec := s.spec(rc.Meta.Flow)
	if spec == nil {
		// Nothing to rebuild the run from: scenario submissions and flows
		// from an older menu exist only in the identity record. Don't fail
		// the whole boot — replay what was committed and surface the run
		// as failed, trace intact, so the operator can see it and resubmit.
		return s.registerUnresumable(id, rc, l)
	}
	if err := rc.Rewind(l); err != nil {
		_ = l.Close()
		return err
	}
	sess := hercules.NewSessionStore(rc.Meta.User, s.store)
	if err := sess.Bootstrap(); err != nil {
		_ = l.Close()
		return err
	}
	f, err := buildFlow(spec, sess)
	if err != nil {
		_ = l.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning}
	rec.started = time.Now()
	rec.walLog = l
	rec.wal = storage.NewRunWAL(l)
	// Provenance: the resumed run re-records its whole history through
	// the fresh session database, so the chain is rebuilt (after
	// verifying the pre-crash one) and then observes the replayed units
	// and the fresh suffix as one stream.
	rec.db = sess.DB
	if err := s.resetRunChain(rec); err != nil {
		_ = l.Close()
		return fmt.Errorf("provenance: %w", err)
	}
	sess.DB.Observe(rec.chain)
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	opts := &exec.RunOptions{
		DB:     sess.DB,
		User:   rc.Meta.User,
		Label:  id,
		Tracer: trace.Multi(rec.log, s.metrics),
		WAL:    rec.wal,
		Resume: rc,
	}
	if spec.Delay > 0 {
		d := spec.Delay
		opts.TaskDelay = &d
	}
	s.launch(ctx, rec, f, 0, opts)
	return nil
}

// registerUnresumable surfaces an interrupted run whose flow cannot be
// rebuilt from its identity record (a scenario submission, or a flow
// gone from the menu): committed payloads are still replayed into the
// datastore and result cache, and the run reappears terminal-failed
// with its recovered trace prefix.
func (s *Server) registerUnresumable(id string, rc *storage.Recovered, l storage.Log) error {
	if err := rc.Replay(s.store, s.cache); err != nil {
		_ = l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		cancel: func() {}, done: make(chan struct{}), log: newEventLog(),
		state: stateFailed,
		err:   fmt.Errorf("cannot resume: log names unknown flow %q", rc.Meta.Flow)}
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	rec.log.close()
	close(rec.done)
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	return nil
}

// noteSeq advances the id counter past a recovered run id, so new
// submissions never collide with recovered ones.
func (s *Server) noteSeq(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "r-%d", &n); err != nil {
		return
	}
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// Shutdown drains the service for a clean exit: stop admitting
// (submissions get 503), wait up to timeout for active runs to finish
// — each run's goroutine flushes and closes its WAL on the way out —
// then cancel whatever is left, and checkpoint the datastore. forced
// reports that the deadline expired and running flows were aborted;
// their WALs still hold every committed unit, so nothing durable is
// lost. Safe without a DataDir (drain only, no checkpoint).
func (s *Server) Shutdown(timeout time.Duration) (forced bool, err error) {
	s.mu.Lock()
	s.draining = true
	recs := make([]*runRecord, 0, len(s.runs))
	for _, rec := range s.runs {
		recs = append(recs, rec)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		for _, rec := range recs {
			<-rec.done
		}
		close(idle)
	}()
	select {
	case <-idle:
	case <-time.After(timeout):
		forced = true
		for _, rec := range recs {
			rec.cancel()
		}
		<-idle // cancelled runs exit promptly
	}
	// All runs are settled: close the provenance chains their goroutines
	// left open for post-run verification.
	var chainErr error
	for _, rec := range recs {
		if rec.chain != nil {
			if cerr := rec.chain.Close(); cerr != nil && chainErr == nil {
				chainErr = cerr
			}
		}
	}
	if s.dataDir != "" {
		err = s.checkpoint()
	}
	if err == nil {
		err = chainErr
	}
	return forced, err
}

// checkpoint atomically dumps the datastore to <dataDir>/store.json.
func (s *Server) checkpoint() error {
	final := filepath.Join(s.dataDir, "store.json")
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.store.DumpJSON(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}
