package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/storage"
	"repro/internal/trace"
)

// svcScenario is a minimal declarative scenario for submission tests:
// two tasks (Mid then Out) over two imports, so every instance ID is
// known in advance (Src:1, T:2, Mid:3, Out:4 — IDs carry the
// database-global commit sequence).
const svcScenario = `{
  "name": "svc-tiny",
  "schema": [
    "tool T -- the only tool",
    "data Src -- imported source",
    "data Mid -- intermediate",
    "  fd T",
    "  dd Src",
    "data Out -- final output",
    "  fd T",
    "  dd Mid"
  ],
  "tools": [{"type": "T"}],
  "imports": [
    {"key": "src", "type": "Src", "data": "source bytes"},
    {"key": "t", "type": "T", "data": "tool config"}
  ],
  "flow": [
    {"op": "add", "node": "out", "type": "Out"},
    {"op": "expand", "node": "out"},
    {"op": "expand", "node": "out.Mid"},
    {"op": "bind", "node": "out.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.fd", "to": ["t"]},
    {"op": "bind", "node": "out.Mid.Src", "to": ["src"]}
  ]
}`

// submitScenario posts an inline scenario and returns the created run.
func submitScenario(t *testing.T, base, doc, user string) runView {
	t.Helper()
	body := fmt.Sprintf(`{"scenario":%s,"user":%q}`, doc, user)
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/runs (scenario): status %d (%v)", resp.StatusCode, e)
	}
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("POST /v1/runs: decoding body: %v", err)
	}
	return v
}

func TestScenarioSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	v := submitScenario(t, ts.URL, svcScenario, "alice")
	if v.Flow != "scenario:svc-tiny" {
		t.Fatalf("run flow = %q, want scenario:svc-tiny", v.Flow)
	}
	fin := waitTerminal(t, ts.URL, v.ID)
	if fin.State != string(stateSucceeded) || fin.TasksRun != 2 {
		t.Fatalf("scenario run ended %+v, want succeeded with 2 tasks", fin)
	}
}

func TestScenarioSubmissionRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e["error"]
	}
	if code, msg := post(`{"flow":"perf","scenario":{"name":"x"}}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "not both") {
		t.Fatalf("flow+scenario: %d %q, want 400 not-both", code, msg)
	}
	if code, msg := post(`{"scenario":{"name":"broken"}}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "scenario") {
		t.Fatalf("invalid scenario: %d %q, want 400 naming the scenario", code, msg)
	}
}

// TestScenarioMemoIsolation: the server's shared result cache must not
// leak across scenario worlds. The cache is keyed by content-addressed
// derivation alone, and the same tool type and bytes can be clean in
// one scenario and declared failing in another — so the failing twin
// must actually fail even when the clean scenario ran first.
func TestScenarioMemoIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submitScenario(t, ts.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("clean scenario ended %+v", fin)
	}
	failing := strings.Replace(svcScenario, `"name": "svc-tiny"`, `"name": "svc-tiny-fail"`, 1)
	failing = strings.Replace(failing, `"tools": [{"type": "T"}]`,
		`"tools": [{"type": "T", "behavior": "fail"}]`, 1)
	if failing == svcScenario {
		t.Fatal("test did not rewrite the scenario")
	}
	v2 := submitScenario(t, ts.URL, failing, "alice")
	if fin := waitTerminal(t, ts.URL, v2.ID); fin.State != string(stateFailed) ||
		!strings.Contains(fin.Error, "declared failing") {
		t.Fatalf("failing twin ended %+v, want failed with the declared-failing error", fin)
	}
}

// TestProvenanceEndpoint drives the chaining query over a scenario run
// whose instance IDs are fully known: backward from the final output,
// forward from the imported source, depth bounds, and the inline check
// of the run WAL's links.
func TestProvenanceEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submitScenario(t, ts.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("scenario run ended %+v", fin)
	}
	base := ts.URL + "/v1/runs/" + v.ID + "/provenance"

	var view provenanceView
	getJSON(t, base+"?inst=Out:4&verify=1", &view)
	if view.Root != "Out:4" || view.Dir != "back" || view.Depth != -1 {
		t.Fatalf("view header = %+v", view)
	}
	wantNodes := []string{"Out:4", "T:2", "Mid:3", "Src:1"}
	if fmt.Sprint(view.Nodes) != fmt.Sprint(wantNodes) {
		t.Fatalf("backchain nodes = %v, want %v", view.Nodes, wantNodes)
	}
	// First edge is the paper's fd arc: Out:4 was produced by tool T:2.
	if e := view.Edges[0]; e.Parent != "Out:4" || e.Child != "T:2" || e.Kind != "fd" {
		t.Fatalf("first edge = %+v, want Out:4 -fd-> T:2", e)
	}
	walRecs := len(walRecords(t, filepath.Join(dir, "runs", v.ID+".wal")))
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records != walRecs {
		t.Fatalf("WAL verdict = %+v, want verified with the log's %d records", view.Chain, walRecs)
	}

	getJSON(t, base+"?inst=Src:1&dir=fwd", &view)
	if fmt.Sprint(view.Nodes) != fmt.Sprint([]string{"Src:1", "Mid:3", "Out:4"}) {
		t.Fatalf("forwardchain nodes = %v", view.Nodes)
	}

	// depth=1: only the direct derivation level.
	getJSON(t, base+"?inst=Out:4&depth=1", &view)
	if fmt.Sprint(view.Nodes) != fmt.Sprint([]string{"Out:4", "T:2", "Mid:3"}) {
		t.Fatalf("depth-1 backchain nodes = %v", view.Nodes)
	}

	for url, wantCode := range map[string]int{
		base:                              http.StatusBadRequest, // missing inst
		base + "?inst=Out:4&dir=sideways": http.StatusBadRequest,
		base + "?inst=Out:4&depth=x":      http.StatusBadRequest,
		base + "?inst=Nope:9":             http.StatusNotFound,
		ts.URL + "/v1/runs/r-9999/provenance?inst=Out:4": http.StatusNotFound,
	} {
		if resp := getJSON(t, url, nil); resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
		}
	}
}

// walRecords opens a run's WAL and returns its well-framed records.
func walRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	l, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// rewriteWAL replaces a run log's records with edit(records), each
// framed afresh — an adversary who knows the framing, so only the hash
// links can tell.
func rewriteWAL(t *testing.T, path string, edit func([][]byte) [][]byte) {
	t.Helper()
	recs := edit(walRecords(t, path))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableWALProvenance: a durable run leaves exactly one file, its
// WAL; verify=1 checks that log's links live, and after a clean
// shutdown a cold reader (RecoverRun, the flowd -verify-provenance
// path) accepts it.
func TestDurableWALProvenance(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts.URL, "perf", "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	// Locate the produced Performance instance (IDs carry the session's
	// global commit sequence, so the exact number depends on bootstrap).
	rec := s.record(v.ID)
	perf := ""
	for i := 1; i <= rec.db.Len(); i++ {
		if id := history.MakeID("Performance", i); rec.db.Get(id) != nil {
			perf = string(id)
		}
	}
	if perf == "" {
		t.Fatal("no Performance instance in the run's session database")
	}
	var view provenanceView
	getJSON(t, ts.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf+"&verify=1", &view)
	if view.Chain == nil || !view.Chain.Verified || view.Chain.Records == 0 {
		t.Fatalf("live WAL verdict = %+v", view.Chain)
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}

	ents, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != v.ID+".wal" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("runs/ holds %v, want exactly %s.wal", names, v.ID)
	}
	l, err := storage.OpenFile(filepath.Join(dir, "runs", v.ID+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	rc, rerr := storage.RecoverRun(l)
	n := l.Records()
	if cerr := l.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if rerr != nil || !rc.Finished || n != view.Chain.Records {
		t.Fatalf("cold RecoverRun = (%d records, %v), want %d records, finished, clean", n, rerr, view.Chain.Records)
	}

	// A recovered-finished run has no live session: the endpoint says so.
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	resp := getJSON(t, ts2.URL+"/v1/runs/"+v.ID+"/provenance?inst="+perf, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("provenance of recovered run: status %d, want 409", resp.StatusCode)
	}
}

// TestProvenanceVerifyNeedsWAL: without a data dir a run has no WAL, so
// verify=1 has nothing to check and answers 409 saying why.
func TestProvenanceVerifyNeedsWAL(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	v := submitScenario(t, ts.URL, svcScenario, "alice")
	waitTerminal(t, ts.URL, v.ID)
	var e map[string]string
	resp := getJSON(t, ts.URL+"/v1/runs/"+v.ID+"/provenance?inst=Out:4&verify=1", &e)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(e["error"], "-data-dir") {
		t.Fatalf("verify=1 without a WAL: status %d (%v), want 409 naming -data-dir", resp.StatusCode, e)
	}
}

// TestDurableResumeRefusesTamperedWAL: boot recovery verifies every
// WAL's links and refuses a tampered one — finished or interrupted —
// naming the file and the first record whose link fails.
func TestDurableResumeRefusesTamperedWAL(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submit(t, ts.URL, "perf", "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
	path := filepath.Join(dir, "runs", v.ID+".wal")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, finished := range []bool{true, false} {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		var bad int
		rewriteWAL(t, path, func(recs [][]byte) [][]byte {
			if !finished {
				recs = recs[:len(recs)-1] // drop RunFinished: an interrupted run
			}
			bad = len(recs) / 2
			recs[bad] = append(recs[bad][:len(recs[bad])-1], `,"tampered":true}`...)
			return recs
		})
		_, err := New(Config{Workers: 1, DataDir: dir})
		want := fmt.Sprintf("record %d:", bad+1)
		if err == nil || !strings.Contains(err.Error(), v.ID+".wal") || !strings.Contains(err.Error(), want) {
			t.Fatalf("finished=%v: New over a tampered WAL: err %v, want one naming %s.wal and %s", finished, err, v.ID, want)
		}
	}

	// A raw byte flip inside an interior record, not re-framed: its
	// frame CRC fails with intact frames after it, which no crash
	// leaves, so boot refuses the log rather than resuming the run from
	// the damaged record.
	recs := walRecords(t, path)
	bad, off := len(recs)/2, 0
	for _, r := range recs[:bad] {
		off += 8 + len(r) // frame header + payload
	}
	flipped := append([]byte(nil), pristine...)
	flipped[off+8+len(recs[bad])/2] ^= 0x20
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: 1, DataDir: dir})
	if want := fmt.Sprintf("record %d:", bad); err == nil || !strings.Contains(err.Error(), v.ID+".wal") || !strings.Contains(err.Error(), want) {
		t.Fatalf("New over a WAL with a flipped interior byte: err %v, want one naming %s.wal and %s", err, v.ID, want)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, flipped) {
		t.Fatal("the refused boot changed the damaged WAL")
	}
}

// TestProvenanceVerifyCatchesLostWAL: once a run's writer has closed,
// verify=1 expects the file to hold exactly the records it wrote. A
// WAL cut back on a frame boundary, emptied or deleted links cleanly
// (or has nothing to link), yet fails the check; a deleted one is not
// recreated.
func TestProvenanceVerifyCatchesLostWAL(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submitScenario(t, ts.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("scenario run ended %+v", fin)
	}
	path := filepath.Join(dir, "runs", v.ID+".wal")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	verdict := func() *chainVerdict {
		var view provenanceView
		getJSON(t, ts.URL+"/v1/runs/"+v.ID+"/provenance?inst=Out:4&verify=1", &view)
		if view.Chain == nil {
			t.Fatal("verify=1 answered without a verdict")
		}
		return view.Chain
	}
	if c := verdict(); !c.Verified {
		t.Fatalf("pristine WAL: %+v", c)
	}
	for _, tc := range []struct {
		name string
		harm func()
	}{
		{"tail cut on a frame boundary", func() {
			l, err := storage.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Rewind(l.Records() - 1); err != nil {
				t.Fatal(err)
			}
			l.Close()
		}},
		{"emptied", func() {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted", func() {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		tc.harm()
		if c := verdict(); c.Verified || c.Error == "" {
			t.Fatalf("%s: verdict %+v, want a failure", tc.name, c)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("verify=1 recreated the deleted WAL: %v", err)
	}
}

// TestDurableWALOldFormatRefused: a data dir holding a WAL from before
// the records were linked (its RunMeta has no format version) makes New
// fail with an error naming the file and the format.
func TestDurableWALOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	runs := filepath.Join(dir, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := storage.OpenFile(filepath.Join(runs, "r-0001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"meta":{"id":"r-0001","flow":"perf","user":"x"}}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: 1, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "r-0001.wal") || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("New over an old-format WAL: err %v, want a format-version error naming r-0001.wal", err)
	}
}

// TestDurableWALFDsBounded: a finished durable run keeps no file open,
// so the process's descriptor count does not grow with the number of
// runs served.
func TestDurableWALFDsBounded(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	s, err := New(Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Submit through the handler directly: no sockets to count.
	runOne := func() {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/runs",
			strings.NewReader(`{"flow":"perf","user":"alice"}`)))
		var v runView
		if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil || rr.Code != http.StatusCreated {
			t.Fatalf("submit: status %d, %s", rr.Code, rr.Body)
		}
		rec := s.record(v.ID)
		<-rec.done
		if st := rec.view().State; st != string(stateSucceeded) {
			t.Fatalf("run %s ended %s", v.ID, st)
		}
	}
	runOne()
	before := fds()
	const runs = 20
	for i := 0; i < runs; i++ {
		runOne()
	}
	if after := fds(); after > before+2 {
		t.Fatalf("%d descriptors open after %d more durable runs, %d before: finished runs keep files open", after, runs, before)
	}
	if forced, err := s.Shutdown(5 * time.Second); err != nil || forced {
		t.Fatalf("Shutdown = (forced %v, err %v)", forced, err)
	}
}

// TestDurableWALDeterminesDerivations: a run's WAL carries no
// derivation records, because its RunMeta plus replanning determines
// them. A menu flow and a scenario submission are each rebuilt from
// their finished WAL's RunMeta alone and replanned over the logged
// commits (the executor verifies every replanned ID); every instance a
// unit committed must come back with the ID, type, tool and inputs the
// live history database recorded.
func TestDurableWALDeterminesDerivations(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	ids := []string{submit(t, ts.URL, "perf", "alice").ID, submitScenario(t, ts.URL, svcScenario, "bob").ID}
	for _, id := range ids {
		if fin := waitTerminal(t, ts.URL, id); fin.State != string(stateSucceeded) {
			t.Fatalf("run %s ended %+v", id, fin)
		}
	}
	for _, id := range ids {
		live := s.record(id).db
		l, err := storage.OpenFile(filepath.Join(dir, "runs", id+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := storage.RecoverRun(l)
		l.Close()
		if err != nil || !rc.Finished {
			t.Fatalf("%s: RecoverRun = finished %v, %v", id, rc != nil && rc.Finished, err)
		}

		b, err := s.build(*rc.Meta)
		if err != nil {
			t.Fatalf("%s: rebuilding from RunMeta: %v", id, err)
		}
		b.opts.Resume = rc
		b.opts.Tracer = trace.NewBuffer()
		if b.target != 0 {
			_, err = s.engine.RunNodeOptions(context.Background(), b.f, b.target, b.opts)
		} else {
			_, err = s.engine.RunFlowOptions(context.Background(), b.f, b.opts)
		}
		if b.world != nil {
			b.world.Close()
		}
		if err != nil {
			t.Fatalf("%s: replanning over the log: %v", id, err)
		}
		n := 0
		for _, c := range rc.Commits {
			for _, inst := range c.Insts {
				want, got := live.Get(history.ID(inst)), b.opts.DB.Get(history.ID(inst))
				if want == nil || got == nil {
					t.Fatalf("%s: instance %s: live %v, rebuilt %v", id, inst, want, got)
				}
				if got.ID != want.ID || got.Type != want.Type || got.Tool != want.Tool ||
					fmt.Sprint(got.Inputs) != fmt.Sprint(want.Inputs) {
					t.Fatalf("%s: rebuilt %s = {%s %s %v}, live {%s %s %v}", id, inst,
						got.Type, got.Tool, got.Inputs, want.Type, want.Tool, want.Inputs)
				}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: the WAL names no committed instance", id)
		}
	}
}

// TestDurableResumeScenario: a scenario submission's body rides in its
// RunMeta, so an interrupted scenario run resumes on boot like a menu
// flow, its final masked trace byte-identical to the uninterrupted one.
func TestDurableResumeScenario(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	v := submitScenario(t, ts1.URL, svcScenario, "alice")
	if fin := waitTerminal(t, ts1.URL, v.ID); fin.State != string(stateSucceeded) {
		t.Fatalf("run ended %+v", fin)
	}
	golden := fetchTrace(t, ts1.URL, v.ID)
	ts1.Close() // no Shutdown: a crash

	// Cut the log before its last unit's commit.
	path := filepath.Join(dir, "runs", v.ID+".wal")
	l, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Rewind(l.Records() - 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if got := waitTerminal(t, ts2.URL, v.ID); got.State != string(stateSucceeded) || got.Flow != "scenario:svc-tiny" {
		t.Fatalf("resumed scenario run = %+v, want succeeded scenario:svc-tiny", got)
	}
	sameTrace(t, fetchTrace(t, ts2.URL, v.ID), golden)
}
