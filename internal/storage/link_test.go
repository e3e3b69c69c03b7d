package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// linkedRun returns the records of a finished two-job run as RunWAL
// writes them: meta, events, commits, RunFinished — all linked.
func linkedRun(t testing.TB) [][]byte {
	t.Helper()
	l := NewMemLog()
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	recs, err := l.Committed()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// memLogOf returns a MemLog holding recs, all synced.
func memLogOf(t testing.TB, recs [][]byte) *MemLog {
	t.Helper()
	l := NewMemLog()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return l
}

// wantRecordNamed asserts that recovering recs fails naming record i.
func wantRecordNamed(t *testing.T, recs [][]byte, i int, label string) {
	t.Helper()
	_, err := RecoverRun(memLogOf(t, recs))
	if err == nil {
		t.Fatalf("%s: RecoverRun accepted a tampered log", label)
	}
	if want := fmt.Sprintf("record %d:", i); !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: error does not name record %d: %v", label, i, err)
	}
}

func clone(recs [][]byte) [][]byte {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

func TestLinkedRunVerifies(t *testing.T) {
	recs := linkedRun(t)
	head, err := VerifyLinks(recs)
	if err != nil {
		t.Fatalf("clean log failed VerifyLinks: %v", err)
	}
	if head != DigestOf(recs[len(recs)-1]) {
		t.Fatal("VerifyLinks head is not the last record's digest")
	}
	if !bytes.HasPrefix(recs[0], []byte(`{"prev":"`+strings.Repeat("0", 64)+`","meta":`)) {
		t.Fatalf("record 0 does not link to genesis: %s", recs[0])
	}
	if h, err := VerifyLinks(nil); err != nil || h != Genesis {
		t.Fatalf("empty log: head %x, err %v", h, err)
	}
}

// The tamper suite on WAL records: every single-record flip, drop,
// swap, insert and self-consistent rewrite is refused, and the error
// names the first record whose link fails.

func TestLinkTamperFlip(t *testing.T) {
	orig := linkedRun(t)
	last := len(orig) - 1
	for i := range orig {
		for _, off := range []int{0, linkLen / 2, linkLen, len(orig[i]) / 2, len(orig[i]) - 1} {
			recs := clone(orig)
			recs[i][off] ^= 0x20
			if off >= linkLen && i == last {
				continue // no later link covers it: FileLog's frame CRC does (TestLinkFinalFlipCaughtByCRC)
			}
			want := i + 1
			if off < linkLen {
				want = i // the record's own link
			}
			wantRecordNamed(t, recs, want, fmt.Sprintf("flip record %d byte %d", i, off))
		}
	}
}

func TestLinkTamperDrop(t *testing.T) {
	orig := linkedRun(t)
	for i := 0; i < len(orig)-1; i++ {
		recs := append(clone(orig[:i]), clone(orig[i+1:])...)
		wantRecordNamed(t, recs, i, fmt.Sprintf("drop record %d", i))
	}
}

func TestLinkTamperSwap(t *testing.T) {
	orig := linkedRun(t)
	for i := 0; i < len(orig)-1; i++ {
		for j := i + 1; j < len(orig); j++ {
			recs := clone(orig)
			recs[i], recs[j] = recs[j], recs[i]
			wantRecordNamed(t, recs, i, fmt.Sprintf("swap records %d,%d", i, j))
		}
	}
}

func TestLinkTamperInsert(t *testing.T) {
	orig := linkedRun(t)
	for i := range orig {
		for _, dup := range []int{0, i, len(orig) - 1} {
			recs := append(clone(orig[:i]), append([]byte(nil), orig[dup]...))
			recs = append(recs, clone(orig[i:])...)
			// The copy links to orig[dup-1], so it fails in place unless
			// it is a copy of the record it precedes; then that record,
			// now following its own copy, is the first to fail.
			want := i
			if dup == i {
				want = i + 1
			}
			wantRecordNamed(t, recs, want, fmt.Sprintf("insert copy of record %d at %d", dup, i))
		}
	}
}

// TestLinkTamperRewrite changes a record's content but keeps its own
// link valid — an adversary who re-frames the record. Its successor's
// link names it.
func TestLinkTamperRewrite(t *testing.T) {
	orig := linkedRun(t)
	for i := 0; i < len(orig)-1; i++ {
		recs := clone(orig)
		recs[i] = append(recs[i][:len(recs[i])-1], `,"x":1}`...)
		if _, err := VerifyLinks(recs[:i+1]); err != nil {
			t.Fatalf("rewrite of record %d broke its own link: %v", i, err)
		}
		wantRecordNamed(t, recs, i+1, fmt.Sprintf("rewrite record %d", i))
	}
}

// TestLinkFinalFlipCaughtByCRC: the newest record has no successor to
// vouch for it, so a byte flip there is caught by its frame CRC on a
// FileLog. The damaged frame reads as a torn tail: it is never
// decoded, and the run recovers as interrupted before it.
func TestLinkFinalFlipCaughtByCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	n := l.Records()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x20 // inside the RunFinished record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.Torn() || l2.Records() != n-1 {
		t.Fatalf("flipped final frame: torn=%v, %d records; want torn, %d", l2.Torn(), l2.Records(), n-1)
	}
	rec, err := RecoverRun(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished {
		t.Fatal("run with a damaged RunFinished frame recovered as finished")
	}
}

// finishedRunFile writes a finished two-job run to a FileLog at path
// and returns its records as written.
func finishedRunFile(t *testing.T, path string) [][]byte {
	t.Helper()
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, commits := twoJobStream(true, true)
	writeStream(t, l, events, commits)
	recs := mustCommitted(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFileLogInteriorFlipRefused: a raw byte flip inside an interior
// frame (not re-framed) fails that frame's CRC, but intact frames
// follow it, so it is damage, not a crash tail: opening the log fails
// naming the record, instead of recovering the run as interrupted
// before it.
func TestFileLogInteriorFlipRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	recs := finishedRunFile(t, path)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var off int
	for i, rec := range recs[:len(recs)-1] {
		data := append([]byte(nil), pristine...)
		data[off+frameHeader+len(rec)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []func(string) (*FileLog, error){OpenFile, OpenReadOnly} {
			l, err := open(path)
			if err == nil {
				l.Close()
				t.Fatalf("flip in record %d of %d: the log opened", i, len(recs))
			}
			if want := fmt.Sprintf("record %d:", i); !strings.Contains(err.Error(), want) {
				t.Fatalf("flip in record %d: error does not name it: %v", i, err)
			}
		}
		off += frameHeader + len(rec)
	}
}

// TestRecoverRefusesDataPastFinish: a finished run appends nothing after
// RunFinished, so a record or a torn tail behind it is damage.
func TestRecoverRefusesDataPastFinish(t *testing.T) {
	recs := linkedRun(t)
	head, err := VerifyLinks(recs)
	if err != nil {
		t.Fatal(err)
	}
	extra := AppendLink(nil, head)
	extra = append(extra, `,"event":{"seq":99,"kind":"RunFinished"}}`...)
	wantRecordNamed(t, append(clone(recs), extra), len(recs), "record past RunFinished")

	path := filepath.Join(t.TempDir(), "r-0001.wal")
	finishedRunFile(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{7, 0, 0, 0, 1, 2, 3, 4, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.Torn() {
		t.Fatal("appended partial frame does not read as a torn tail")
	}
	_, err = RecoverRun(l)
	if want := fmt.Sprintf("record %d:", len(recs)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("torn tail past RunFinished: err %v, want one naming %s", err, want)
	}
}

// TestOpenReadOnlyMissing: inspecting a log that is not there fails and
// creates nothing.
func TestOpenReadOnlyMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r-0001.wal")
	if l, err := OpenReadOnly(path); err == nil {
		l.Close()
		t.Fatal("OpenReadOnly of a missing log succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("OpenReadOnly left a file behind: %v", err)
	}
}

// linkBodies links hand-written record bodies (JSON objects) the way
// RunWAL does, with plain crypto/sha256: record i opens with the hex
// SHA-256 of record i-1's bytes.
func linkBodies(bodies ...string) [][]byte {
	var recs [][]byte
	prev := make([]byte, sha256.Size)
	for _, b := range bodies {
		rec := []byte(`{"prev":"` + hex.EncodeToString(prev) + `",` + b[1:])
		recs = append(recs, rec)
		sum := sha256.Sum256(rec)
		prev = sum[:]
	}
	return recs
}

// TestRecoverRefusesUndecodableRecord: a well-framed, correctly linked
// record that is not a decodable envelope cannot come from a crash, so
// recovery refuses the log and names the record instead of resuming the
// run from there.
func TestRecoverRefusesUndecodableRecord(t *testing.T) {
	recs := linkBodies(
		`{"meta":{"id":"r-0001","flow":"perf","user":"alice","version":2}}`,
		`{"event":{"seq":0,"kind":"PlanBuilt","job":-1,"combo":0,"unit":-1}}`,
		`{"event":{"seq":"one","kind":"UnitDispatched"}}`,
		`{"event":{"seq":2,"kind":"RunFinished","job":-1,"combo":0,"unit":-1}}`,
	)
	_, err := RecoverRun(memLogOf(t, recs))
	if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("RecoverRun = %v, want an error naming undecodable record 2", err)
	}
}

// TestRecoverRefusesOldFormat: a log written before records were linked
// (no prev link, no version in its RunMeta) is refused with an error
// that says so, not migrated.
func TestRecoverRefusesOldFormat(t *testing.T) {
	old := [][]byte{
		[]byte(`{"meta":{"id":"r-0001","flow":"perf","user":"alice"}}`),
		[]byte(`{"event":{"seq":0,"kind":"PlanBuilt","job":-1,"combo":0,"unit":-1}}`),
	}
	_, err := RecoverRun(memLogOf(t, old))
	if err == nil || !strings.Contains(err.Error(), "record 0") || !strings.Contains(err.Error(), "format version 0") {
		t.Fatalf("RecoverRun over an unlinked log = %v, want the format-version error", err)
	}
	// A linked log whose RunMeta carries another version is refused too.
	recs := linkBodies(`{"meta":{"id":"r-0001","flow":"perf","user":"alice","version":1}}`)
	if _, err := RecoverRun(memLogOf(t, recs)); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("RecoverRun over a version-1 meta = %v, want the format-version error", err)
	}
}

// TestRunWALResumeKeepsOneChain: a writer opened on a rewound prefix
// links its first record to the prefix's last, so the resumed log
// verifies end to end.
func TestRunWALResumeKeepsOneChain(t *testing.T) {
	l := NewMemLog()
	events, commits := twoJobStream(false, false)
	writeStream(t, l, events, commits)
	rec, err := RecoverRun(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Rewind(l); err != nil {
		t.Fatal(err)
	}
	w := NewRunWAL(l)
	full, fullCommits := twoJobStream(true, true)
	for _, ev := range full[len(rec.Events):] {
		if c := fullCommits[ev.Unit]; c != nil && ev.Kind == trace.KindUnitCommitted {
			w.AppendCommit(ev, c)
			continue
		}
		w.AppendEvent(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := RecoverRun(l)
	if err != nil {
		t.Fatalf("resumed log does not verify: %v", err)
	}
	if !again.Finished || !reflect.DeepEqual(again.Events, full) {
		t.Fatalf("resumed log recovered finished=%v with %d events, want the full %d", again.Finished, len(again.Events), len(full))
	}
}

// FuzzRecoverRun feeds RecoverRun arbitrary logs, one record per line
// (the encoder never writes a raw newline), seeded from a real linked
// WAL. It must never panic, and every log it accepts must re-verify:
// its links hold, its prefix fits the log, and the log rewound to that
// prefix recovers to the same prefix.
func FuzzRecoverRun(f *testing.F) {
	recs := linkedRun(f)
	f.Add(bytes.Join(recs, []byte("\n")))
	f.Add(bytes.Join(recs[:len(recs)-1], []byte("\n")))
	f.Add(bytes.Join(linkBodies(`{"meta":{"id":"r","flow":"f","user":"u","version":2,"scenario":{"name":"s"}}}`), []byte("\n")))
	f.Add([]byte(`{"meta":{"id":"r-0001","flow":"perf","user":"alice"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		if len(data) > 0 {
			recs = bytes.Split(data, []byte("\n"))
		}
		l := memLogOf(t, recs)
		rec, err := RecoverRun(l)
		if err != nil {
			return
		}
		if _, err := VerifyLinks(recs); err != nil {
			t.Fatalf("accepted a log whose links fail: %v", err)
		}
		if rec.PrefixRecords < 0 || rec.PrefixRecords > len(recs) {
			t.Fatalf("prefix of %d records in a log of %d", rec.PrefixRecords, len(recs))
		}
		if err := rec.Rewind(l); err != nil {
			t.Fatal(err)
		}
		again, err := RecoverRun(l)
		if err != nil {
			t.Fatalf("rewound prefix does not re-verify: %v", err)
		}
		if !reflect.DeepEqual(again.Events, rec.Events) || again.NextSeq != rec.NextSeq || again.Finished != rec.Finished {
			t.Fatalf("rewound prefix recovers differently: %d events (next %d, finished %v), first pass %d (next %d, finished %v)",
				len(again.Events), again.NextSeq, again.Finished, len(rec.Events), rec.NextSeq, rec.Finished)
		}
	})
}
