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
	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the service half of the durability layer (Config.
// DataDir). Layout under the data directory:
//
//	runs/<id>.wal   one write-ahead log per submission: its identity
//	                record (RunMeta, which with replanning determines
//	                every derivation the run commits), the run's trace
//	                and each committed unit's artifacts, every record
//	                hash-linked to its predecessor — the run's one
//	                provenance record (verified by boot recovery,
//	                GET …/provenance?verify=1 and flowd
//	                -verify-provenance)
//	store.json      datastore checkpoint, written by Shutdown
//
// Boot recovery (initDurable, from New) reads every WAL back through
// storage.RecoverRun, which refuses a log with a broken link, an
// undecodable record or an older format — and with it the boot, naming
// the file and the record:
//
//   - A log containing RunFinished is a completed run — possibly a
//     failed or cancelled one. Its committed artifacts and derivation
//     keys are replayed into the shared datastore and result cache, and
//     the run reappears fully queryable (status, complete trace) in a
//     terminal state. This is what makes the memo survive restarts: a
//     warm resubmission after a clean reboot hits on every unit.
//
//   - A log without RunFinished is an interrupted run (crash, kill -9).
//     The service rebuilds the submission's flow from the identity
//     record (build — a menu flow or a scenario alike), rewinds the log
//     to its resumable prefix and relaunches the run with
//     exec.RunOptions.Resume: the executor restores every
//     fully-committed unit from the log (re-recording history and
//     re-feeding datastore and memo through its normal committer) and
//     re-executes only the rest, appending to the same WAL with
//     continuous event sequence numbers and links. Nothing is replayed
//     here out-of-band — the resumed run is the single commit path.
//
// Shutdown is the graceful half: stop admitting, drain active runs
// (their own goroutines flush and close each WAL), abort stragglers at
// the deadline, checkpoint the datastore.

// walPath is a run's write-ahead log under the data dir.
func (s *Server) walPath(id string) string {
	return filepath.Join(s.dataDir, "runs", id+".wal")
}

// openRunWAL creates a fresh submission's log and makes the identity
// record durable.
func (s *Server) openRunWAL(rec *runRecord, meta storage.RunMeta) error {
	l, err := storage.OpenFile(s.walPath(rec.id))
	if err != nil {
		return err
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(meta); err != nil {
		_ = w.Close()
		_ = l.Close()
		return err
	}
	rec.wal, rec.walLog = w, l
	return nil
}

// discardRunWAL abandons a WAL opened for a run that was never launched
// (admission lost a race with Shutdown).
func (s *Server) discardRunWAL(rec *runRecord) {
	if rec.wal == nil {
		return
	}
	_ = rec.wal.Close()
	_ = rec.walLog.Close()
}

// verifyRunWAL runs the one provenance check, storage.RecoverRun, over
// a run's log and returns how many records it holds. The log is opened
// read-only and afresh (a live run's writer keeps appending to its own
// handle; a torn final frame is simply not read): a missing file fails,
// and so does a log without its identity record. Once the run's writer
// has closed, the log must also end in the record it wrote last — the
// links cannot show a dropped tail, since no record vouches for its
// successors.
func (s *Server) verifyRunWAL(rec *runRecord) (int, error) {
	l, err := storage.OpenReadOnly(s.walPath(rec.id))
	if err != nil {
		return 0, err
	}
	defer l.Close()
	rc, err := storage.RecoverRun(l)
	if err == nil && rc.Meta == nil {
		err = errors.New("the log holds no identity record")
	}
	rec.mu.Lock()
	head := rec.walHead
	rec.mu.Unlock()
	if err == nil && head != storage.Genesis {
		recs, rerr := l.Committed()
		if err = rerr; err == nil && storage.DigestOf(recs[len(recs)-1]) != head {
			err = fmt.Errorf("record %d is not the last record the run's writer wrote: the log lost its tail", len(recs)-1)
		}
	}
	return l.Records(), err
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
// The run is rebuilt from its identity record exactly as handleSubmit
// built it, so the deterministic replan pre-assigns the instance IDs
// the log recorded — the executor verifies every one before
// committing. The event stream is pre-seeded with the prefix and the
// fresh suffix continues its sequence numbers, so a trace reader sees
// one gapless run.
func (s *Server) resumeRun(id string, rc *storage.Recovered, l storage.Log) error {
	b, err := s.build(*rc.Meta)
	if err != nil {
		// Nothing to rebuild the run from (a flow gone from the menu, a
		// scenario this build cannot materialize). Don't fail the whole
		// boot — replay what was committed and surface the run as
		// failed, trace intact, so the operator can see it and resubmit.
		return s.registerUnresumable(id, rc, l, err)
	}
	if err := rc.Rewind(l); err != nil {
		_ = l.Close()
		if b.world != nil {
			b.world.Close()
		}
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		log: newEventLog(), cancel: cancel, done: make(chan struct{}),
		state: stateRunning, world: b.world, db: b.opts.DB}
	rec.started = time.Now()
	rec.walLog = l
	rec.wal = storage.NewRunWAL(l)
	for _, ev := range rc.Events {
		rec.log.Emit(ev)
		s.metrics.Emit(ev)
	}
	s.mu.Lock()
	s.runs[id] = rec
	s.mu.Unlock()
	b.opts.Label = id
	b.opts.Tracer = trace.Multi(rec.log, s.metrics)
	b.opts.WAL = rec.wal
	b.opts.Resume = rc
	s.launch(ctx, rec, b.f, b.target, b.opts)
	return nil
}

// registerUnresumable surfaces an interrupted run whose flow cannot be
// rebuilt from its identity record: committed payloads are still
// replayed into the datastore and result cache, and the run reappears
// terminal-failed with its recovered trace prefix and the cause.
func (s *Server) registerUnresumable(id string, rc *storage.Recovered, l storage.Log, cause error) error {
	if err := rc.Replay(s.store, s.cache); err != nil {
		_ = l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	rec := &runRecord{id: id, flowName: rc.Meta.Flow, user: rc.Meta.User,
		cancel: func() {}, done: make(chan struct{}), log: newEventLog(),
		state: stateFailed, err: fmt.Errorf("cannot resume: %w", cause)}
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
	if s.dataDir != "" {
		err = s.checkpoint()
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
