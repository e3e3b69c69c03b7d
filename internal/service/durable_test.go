package service

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// fetchTrace returns the run's masked JSONL trace as raw lines.
func fetchTrace(t *testing.T, base, id string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	return lines
}

func sameTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace has %d events, want %d\ngot:  %v\nwant: %v",
			len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace event %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestDurableFinishedRunSurvivesRestart: runs completed and drained
// cleanly must come back on the next boot — the same status view
// (counts included; the elapsed time is not persisted), full trace, and
// a result cache warm enough that a resubmission never touches the
// worker pool.
func TestDurableFinishedRunSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})

	v := submit(t, ts1.URL, "perf", "alice")
	if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateSucceeded) {
		t.Fatalf("run ended %q (error %q), want succeeded", got.State, got.Error)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)
	// A warm rerun before the restart, so the views carry cache hits.
	hot := submit(t, ts1.URL, "perf", "alice")
	waitTerminal(t, ts1.URL, hot.ID)
	var before []runView
	for _, id := range []string{v.ID, hot.ID} {
		var rv runView
		getJSON(t, ts1.URL+"/v1/runs/"+id, &rv)
		rv.ElapsedMS = 0
		before = append(before, rv)
	}
	if before[0].TasksRun == 0 || before[1].CacheHits == 0 {
		t.Fatalf("pre-restart views %+v: want tasks on the cold run and hits on the warm one", before)
	}

	forced, err := s1.Shutdown(5 * time.Second)
	if err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v), want clean", forced, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		t.Fatalf("no datastore checkpoint after Shutdown: %v", err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	for _, want := range before {
		var back runView
		getJSON(t, ts2.URL+"/v1/runs/"+want.ID, &back)
		if back != want {
			t.Fatalf("recovered run = %+v, want the pre-restart view %+v", back, want)
		}
	}
	sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)

	// The memo came back from the WAL: a warm resubmission is all hits.
	v2 := submit(t, ts2.URL, "perf", "alice")
	if v2.ID == v.ID {
		t.Fatalf("new submission reused recovered id %s", v.ID)
	}
	warm := waitTerminal(t, ts2.URL, v2.ID)
	if warm.State != string(stateSucceeded) || warm.CacheHits != 4 {
		t.Fatalf("warm rerun = %+v, want succeeded with 4 cache hits", warm)
	}
}

// TestDurableResumeAfterCrash: truncating a finished run's WAL
// mid-stream models a kill -9 between group commits. The next boot
// must resume the run from its last committed unit and the final
// masked trace must be byte-identical to the uninterrupted golden.
func TestDurableResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts1.URL, "perf", "alice")
	if got := waitTerminal(t, ts1.URL, v.ID); got.State != string(stateSucceeded) {
		t.Fatalf("run ended %q (error %q), want succeeded", got.State, got.Error)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)
	ts1.Close() // no Shutdown: the "crash" leaves no checkpoint behind

	// Chop the WAL at every possible record boundary and recover each
	// truncation with a fresh server over the same data dir.
	walPath := filepath.Join(dir, "runs", v.ID+".wal")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	total := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for keep := 1; keep < total; keep++ {
		if err := os.WriteFile(walPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := storage.OpenFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Rewind(keep); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
		got := waitTerminal(t, ts2.URL, v.ID)
		if got.State != string(stateSucceeded) {
			t.Fatalf("keep=%d: resumed run ended %q (error %q), want succeeded",
				keep, got.State, got.Error)
		}
		sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)
		ts2.Close()
	}
}

// TestDurableShutdownDrains: Shutdown stops admission immediately (503)
// but lets the active run finish, then checkpoints.
func TestDurableShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts.URL, "slow", "alice")

	var wg sync.WaitGroup
	var forced bool
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		forced, err = s.Shutdown(10 * time.Second)
	}()

	// Admission must close before the drain completes.
	rejected := false
	for i := 0; i < 200 && !rejected; i++ {
		resp, perr := http.Post(ts.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"flow":"perf","user":"bob"}`))
		if perr != nil {
			t.Fatal(perr)
		}
		rejected = resp.StatusCode == http.StatusServiceUnavailable
		resp.Body.Close()
		time.Sleep(time.Millisecond)
	}
	if !rejected {
		t.Fatal("submission was never rejected while draining")
	}

	wg.Wait()
	if err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v), want clean drain", forced, err)
	}
	var final runView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID, &final)
	if final.State != string(stateSucceeded) {
		t.Fatalf("drained run ended %q, want succeeded", final.State)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		t.Fatalf("no datastore checkpoint: %v", err)
	}
}

// TestDurableForcedShutdown: a drain deadline too short for the active
// run aborts it (forced=true); the aborted run's log records a finished
// (cancelled) run, so the next boot reports it failed rather than
// resuming it — cancellation is a decision, not a crash.
func TestDurableForcedShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	v := submit(t, ts.URL, "slow", "alice")
	time.Sleep(50 * time.Millisecond) // let the run get past planning

	forced, err := s.Shutdown(time.Millisecond)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !forced {
		t.Fatal("Shutdown reported a clean drain, want forced abort")
	}
	var final runView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID, &final)
	if final.State != string(stateCancelled) {
		t.Fatalf("aborted run ended %q, want cancelled", final.State)
	}

	_, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	var back runView
	getJSON(t, ts2.URL+"/v1/runs/"+v.ID, &back)
	if back.State != string(stateFailed) {
		t.Fatalf("recovered aborted run is %q, want failed", back.State)
	}
}

// newTestServer-based boot over a directory holding a WAL for a flow
// the menu no longer offers must fail loudly, not resume garbage.
// An interrupted run whose flow is not on the menu (a scenario
// submission, or a flow from an older build) cannot be rebuilt from its
// identity record — but it must not fail the whole boot. It recovers
// terminal-failed, queryable, with the reason in its status.
func TestDurableUnknownFlowUnresumable(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(filepath.Join(runs, "r-0001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(storage.RunMeta{ID: "r-0001", Flow: "nope", User: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("New over unknown-flow WAL must not fail boot: %v", err)
	}
	rec := s.record("r-0001")
	if rec == nil {
		t.Fatal("unresumable run not registered")
	}
	v := rec.view()
	if v.State != string(stateFailed) || !strings.Contains(v.Error, `unknown flow "nope"`) {
		t.Fatalf("unresumable run is %s (error %q), want failed/unknown flow", v.State, v.Error)
	}
}

// Recovered ids must not be reissued: the seq counter continues past
// the highest id found on disk even when that run only left a meta
// record behind.
func TestDurableSeqContinues(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(filepath.Join(runs, "r-0007.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w := storage.NewRunWAL(l)
	if err := w.AppendMeta(storage.RunMeta{ID: "r-0007", Flow: "perf", User: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	v := submit(t, ts.URL, "perf", "alice")
	if v.ID != "r-0008" {
		t.Fatalf("first submission after recovery got id %s, want r-0008", v.ID)
	}
	waitTerminal(t, ts.URL, v.ID)
}
