package storage

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestWALRecordRoundTrip: the hand-rolled encoder's output decodes with
// encoding/json to exactly what was appended — every event field set,
// a multi-output commit, strings that need escaping and a scenario
// body — and the records stay linked.
func TestWALRecordRoundTrip(t *testing.T) {
	meta := RunMeta{ID: "r-0001", Flow: "scenario:q\"uote", User: "ålice",
		Scenario: json.RawMessage("{\n  \"name\": \"s\",\n  \"tools\": []\n}")}
	full := trace.Event{Seq: 3, Run: "r-0001", Kind: trace.KindRunFinished, Job: 1, Combo: 2, Unit: 4,
		Nodes: []int{5, 6}, Type: "Net\tlist", Attempt: 2, Insts: []string{"A:1", "B:2"}, Blame: 7,
		Err: "tool said \"no\"", Scheduler: "dataflow", Workers: 8, Jobs: 9, Units: 10, Committed: 11,
		Failed: 12, Skipped: 13, WaitMicros: 14, DurMicros: 15, BusyMicros: 16, ElapsedMicros: 17}
	commitEv := trace.Event{Seq: 4, Kind: trace.KindUnitCommitted, Job: 0, Combo: 0, Unit: 0, Insts: []string{"A:1", "B:2"}}
	commit := &UnitCommit{Unit: 0, Insts: []string{"A:1", "B:2"},
		Outputs: map[string][]byte{"B": []byte("bee"), "A": {0, 1, 2}, "C": nil}, MemoKey: "memo:k"}

	l := NewMemLog()
	w := NewRunWAL(l)
	if err := w.AppendMeta(meta); err != nil {
		t.Fatal(err)
	}
	w.AppendEvent(full)
	w.AppendCommit(commitEv, commit)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := mustCommitted(t, l)
	if _, err := VerifyLinks(recs); err != nil {
		t.Fatal(err)
	}
	var got [3]Record
	for i, raw := range recs {
		if err := json.Unmarshal(raw, &got[i]); err != nil {
			t.Fatalf("record %d: %v\n%s", i, err, raw)
		}
	}
	meta.Version = FormatVersion
	meta.Scenario = json.RawMessage(`{"name":"s","tools":[]}`)
	if !reflect.DeepEqual(*got[0].Meta, meta) {
		t.Fatalf("meta = %+v, want %+v", *got[0].Meta, meta)
	}
	if !reflect.DeepEqual(*got[1].Event, full) {
		t.Fatalf("event = %+v, want %+v", *got[1].Event, full)
	}
	commit.Outputs["C"] = []byte{} // encoding/json decodes "" as empty, not nil
	if !reflect.DeepEqual(*got[2].Event, commitEv) || !reflect.DeepEqual(got[2].Commit, commit) {
		t.Fatalf("commit record = %+v / %+v, want %+v / %+v", *got[2].Event, got[2].Commit, commitEv, commit)
	}
}

func TestAppendMetaRefusesBadScenario(t *testing.T) {
	l := NewMemLog()
	w := NewRunWAL(l)
	defer w.Close()
	if err := w.AppendMeta(RunMeta{ID: "r-0001", Scenario: json.RawMessage(`{"name":`)}); err == nil {
		t.Fatal("AppendMeta accepted a scenario body that is not JSON")
	}
	if n := len(mustCommitted(t, l)); n != 0 {
		t.Fatalf("refused meta left %d records", n)
	}
}

// failingLog fails every Append, or every Sync.
type failingLog struct {
	MemLog
	appendErr, syncErr error
}

func (l *failingLog) Append(rec []byte) error {
	if l.appendErr != nil {
		return l.appendErr
	}
	return l.MemLog.Append(rec)
}

func (l *failingLog) Sync() error {
	if l.syncErr != nil {
		return l.syncErr
	}
	return l.MemLog.Sync()
}

// TestRunWALLatchesWriteErrors: a failed append or sync is latched and
// reported once by Barrier, Err and Close; later appends are dropped,
// so nothing unlinked reaches the log.
func TestRunWALLatchesWriteErrors(t *testing.T) {
	for _, l := range []*failingLog{
		{appendErr: errors.New("disk full")},
		{syncErr: errors.New("fsync failed")},
	} {
		w := NewRunWAL(l)
		if err := w.AppendMeta(RunMeta{ID: "r-0001"}); err == nil || !strings.Contains(err.Error(), "run log write failed") {
			t.Fatalf("AppendMeta over a failing log = %v, want the latched write error", err)
		}
		w.AppendEvent(trace.Event{Seq: 0, Kind: trace.KindPlanBuilt})
		if err := w.Close(); err == nil || w.Err() == nil {
			t.Fatalf("Close = %v, Err = %v; want the latched error", err, w.Err())
		}
	}
}

// TestNewRunWALUnreadableLog: a log that cannot be read back cannot be
// linked onto; the writer latches the read error.
func TestNewRunWALUnreadableLog(t *testing.T) {
	l, err := OpenFile(t.TempDir() + "/r.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	w := NewRunWAL(l) // closed: Committed fails
	if err := w.Close(); err == nil {
		t.Fatal("RunWAL over an unreadable log reported no error")
	}
}
