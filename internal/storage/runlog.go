package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// This file defines what a run's WAL contains and how the executor
// writes it. The log is the trace: record 0 names the run (RunMeta) and
// every further record is one trace.Event, with UnitCommitted events
// additionally carrying the unit's committed artifacts (UnitCommit) so
// recovery can rebuild the datastore, the history and the memo cache
// from the log alone. Every record opens with the hash link to its
// predecessor (link.go), computed by the writer goroutine, so the one
// log is also the run's tamper-evident provenance record.
//
// Durability discipline: the executor's coordinator appends records
// inline (cheap — an encode and a buffered copy) while a single writer
// goroutine drains them to the Log and group-commits with Sync when
// either enough bytes accumulated or the oldest unsynced record has
// waited long enough. Barrier() is the synchronous fsync point, called
// once when a run finishes (and by the service on drain) — never per
// unit, which is what keeps the PR 7 dispatch numbers intact. The
// window between a unit's commit and the next group-commit is bounded
// by syncEvery; a crash inside it loses only that suffix, and recovery
// re-executes the affected units (never half of one).

// FormatVersion is the run-log format AppendMeta stamps into RunMeta:
// 2 is the hash-linked format. Logs without it (written before the
// records were linked) are refused by RecoverRun, not migrated.
const FormatVersion = 2

// RunMeta names a run: the first record of its WAL, written at
// submission. Recovery uses it to rebuild the session and flow the run
// executed so the replanned IDs match the logged ones — together with
// replanning, it determines every instance's derivation (type, tool,
// inputs), which is why the log needs no separate derivation record.
type RunMeta struct {
	// ID is the run's label (service run id, Event.Run before masking).
	ID string `json:"id"`
	// Flow is the service FlowSpec name the run was built from.
	Flow string `json:"flow"`
	// User is the submitting designer.
	User string `json:"user"`
	// Version is the log format, stamped by AppendMeta.
	Version int `json:"version"`
	// Scenario is a scenario submission's declarative body, empty for
	// menu flows.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// UnitCommit is the durable payload of one committed unit, attached to
// its UnitCommitted event: everything replay needs to reconstruct the
// unit's outputs without re-running the tool.
type UnitCommit struct {
	// Unit is the global unit index (== Event.Unit), the replay key.
	Unit int `json:"unit"`
	// Insts are the committed instance IDs in node order (== Event.
	// Insts; duplicated so a payload is self-contained for verification
	// against the replanned IDs).
	Insts []string `json:"insts"`
	// Outputs maps each produced entity type to its artifact bytes —
	// the grouped nodes' outputs plus any secondary outputs the tool
	// emitted.
	Outputs map[string][]byte `json:"outputs"`
	// MemoKey is the unit's derivation key when a result cache was
	// installed, so the cache can be re-fed on recovery.
	MemoKey string `json:"memo_key,omitempty"`
}

// Record is the WAL record envelope: exactly one of Meta and Event is
// set. The record's leading "prev" link is checked on the raw bytes
// (VerifyLinks) and not decoded.
type Record struct {
	Meta  *RunMeta     `json:"meta,omitempty"`
	Event *trace.Event `json:"event,omitempty"`
	// Commit rides along with Event when the event is a UnitCommitted.
	Commit *UnitCommit `json:"commit,omitempty"`
}

// Group-commit policy: sync when this many bytes are unsynced, or when
// the oldest unsynced record has waited this long.
const (
	syncBytes = 256 << 10
	syncEvery = 5 * time.Millisecond
)

// RunWAL writes one run's records to a Log through an asynchronous
// group-committing writer goroutine. Append calls are cheap and
// non-blocking (the channel is buffered generously); Barrier is the
// synchronous durability point. The first write error is latched and
// returned by Barrier, Err and Close — appends after an error are
// dropped, so a full disk degrades to a non-durable run that still
// finishes and reports the failure once.
type RunWAL struct {
	log  Log
	ch   chan walMsg
	wg   sync.WaitGroup
	head Digest // digest of the log's last record; owned by the writer

	mu  sync.Mutex
	err error
}

// walMsg is one queued append (or barrier). The event rides by value:
// a ~200-byte copy into the channel's ring costs far less than the
// pair of heap allocations (Record + Event) it replaces — on the 30k+
// events of a 10k-unit run the difference is pure GC pressure.
type walMsg struct {
	meta   *RunMeta    // identity record, nil otherwise
	ev     trace.Event // event record when ev.Kind != ""
	commit *UnitCommit // rides with a UnitCommitted ev
	ack    chan error  // barrier acknowledgement
}

// NewRunWAL starts the writer goroutine over a Log. Its first record
// links to the last record the log already holds (a resumed run's
// rewound prefix), so a resumed log stays one chain. The caller keeps
// ownership of the Log and must Close the RunWAL (which does not close
// the Log) when the run is over.
func NewRunWAL(l Log) *RunWAL {
	w := &RunWAL{log: l, ch: make(chan walMsg, 4096)}
	if recs, err := l.Committed(); err != nil {
		w.fail(err)
	} else if n := len(recs); n > 0 {
		w.head = DigestOf(recs[n-1])
	}
	w.wg.Add(1)
	go w.writer()
	return w
}

func (w *RunWAL) writer() {
	defer w.wg.Done()

	// Group commits run on a dedicated syncer goroutine: an fsync is
	// almost entirely device wait (the per-call CPU cost is tens of
	// microseconds; the milliseconds are writeback), so the writer keeps
	// encoding and appending while the device flushes. Requests coalesce
	// through the 1-slot channel — a sync already in flight covers the
	// bytes that prompted the next request, or the retry lands right
	// after it.
	syncReq := make(chan struct{}, 1)
	syncerDone := make(chan struct{})
	go func() {
		defer close(syncerDone)
		for range syncReq {
			if err := w.log.Sync(); err != nil {
				w.fail(err)
			}
		}
	}()
	kick := func() {
		select {
		case syncReq <- struct{}{}:
		default:
		}
	}

	buf := make([]byte, 0, 4096) // encode buffer, reused across records
	var pending int              // bytes appended since the last sync request
	var timer *time.Timer        // armed while pending > 0
	var timerC <-chan time.Time
	disarm := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	stopSyncer := func() {
		close(syncReq)
		<-syncerDone
	}
	// barrier is the synchronous durability point: no async handoff, the
	// caller is waiting for the fsync to have happened.
	barrier := func() {
		if err := w.log.Sync(); err != nil {
			w.fail(err)
		}
		pending = 0
		disarm()
	}
	for {
		select {
		case m, ok := <-w.ch:
			if !ok {
				stopSyncer()
				barrier()
				return
			}
			if m.meta != nil || m.ev.Kind != "" {
				if w.Err() == nil {
					// Encoding and linking happen here, on the writer,
					// into a reused buffer (Log.Append copies) — the
					// coordinator's append is a copy into a buffered
					// channel, nothing more.
					buf = appendWALRecord(buf[:0], w.head, m.meta, &m.ev, m.commit)
					if err := w.log.Append(buf); err != nil {
						w.fail(err)
					} else {
						w.head = DigestOf(buf)
						pending += len(buf)
					}
				}
				if pending >= syncBytes {
					kick()
					pending = 0
					disarm()
				} else if pending > 0 && timer == nil {
					timer = time.NewTimer(syncEvery)
					timerC = timer.C
				}
			}
			if m.ack != nil {
				barrier()
				m.ack <- w.Err()
			}
		case <-timerC:
			timer = nil
			timerC = nil
			kick()
			pending = 0
		}
	}
}

func (w *RunWAL) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("storage: run log write failed: %w", err)
	}
	w.mu.Unlock()
}

// Err returns the first write error, if any.
func (w *RunWAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// AppendMeta stamps FormatVersion, writes the run's identity record
// and barriers, so a submission is durable before it is acknowledged.
// A scenario body is compacted; one that is not JSON is refused.
func (w *RunWAL) AppendMeta(m RunMeta) error {
	m.Version = FormatVersion
	if len(m.Scenario) > 0 {
		var b bytes.Buffer
		if err := json.Compact(&b, m.Scenario); err != nil {
			return fmt.Errorf("storage: run %s scenario: %w", m.ID, err)
		}
		m.Scenario = b.Bytes()
	}
	w.ch <- walMsg{meta: &m}
	return w.Barrier()
}

// AppendEvent logs one trace event.
func (w *RunWAL) AppendEvent(ev trace.Event) {
	w.ch <- walMsg{ev: ev}
}

// AppendCommit logs a UnitCommitted event together with its durable
// payload.
func (w *RunWAL) AppendCommit(ev trace.Event, c *UnitCommit) {
	w.ch <- walMsg{ev: ev, commit: c}
}

// Barrier blocks until everything appended so far is on stable storage
// (or surfaces the latched write error).
func (w *RunWAL) Barrier() error {
	ack := make(chan error, 1)
	w.ch <- walMsg{ack: ack}
	return <-ack
}

// Head returns the digest of the log's last record as the writer left
// it: through the links, it vouches for every record. Valid once Close
// has returned.
func (w *RunWAL) Head() Digest { return w.head }

// Close drains, syncs and stops the writer. The underlying Log stays
// open (the caller owns it).
func (w *RunWAL) Close() error {
	close(w.ch)
	w.wg.Wait()
	return w.Err()
}
