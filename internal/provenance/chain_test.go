package provenance

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/flowgen"
	"repro/internal/storage"
)

// tamperLog is a storage.Log whose committed records the test can
// mutate, drop, swap or rewrite — the adversary's view of the
// persisted chain.
type tamperLog struct {
	recs [][]byte
}

func (l *tamperLog) Append(rec []byte) error {
	l.recs = append(l.recs, append([]byte(nil), rec...))
	return nil
}
func (l *tamperLog) Sync() error { return nil }
func (l *tamperLog) Committed() ([][]byte, error) {
	out := make([][]byte, len(l.recs))
	for i, r := range l.recs {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}
func (l *tamperLog) Rewind(keep int) error {
	l.recs = l.recs[:keep]
	return nil
}
func (l *tamperLog) Close() error { return nil }

// failLog fails every Append, to exercise the chain's latched error.
type failLog struct{ tamperLog }

func (l *failLog) Append([]byte) error { return errors.New("disk full") }

// chainWorld populates a synthetic world with a chain attached and
// returns the log and the chain.
func chainWorld(t *testing.T, cells int, seed int64) (*tamperLog, *Chain) {
	t.Helper()
	g, err := flowgen.Generate(flowgen.Spec{Cells: cells, Shape: flowgen.Layered, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	log := &tamperLog{}
	c := NewChain(log)
	b.DB.Observe(c)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != b.DB.Len() {
		t.Fatalf("chain has %d records, db has %d instances", c.Len(), b.DB.Len())
	}
	return log, c
}

// wantBadRecord asserts that err names exactly record i as the first
// bad one.
func wantBadRecord(t *testing.T, err error, i int, label string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: verify passed on a tampered chain", label)
	}
	want := fmt.Sprintf("record %d", i)
	if !strings.Contains(err.Error(), want+" ") && !strings.Contains(err.Error(), want+":") {
		t.Fatalf("%s: error does not name %s: %v", label, want, err)
	}
}

func TestChainVerifyClean(t *testing.T) {
	log, c := chainWorld(t, 30, 1)
	if err := c.Verify(); err != nil {
		t.Fatalf("clean chain failed verify: %v", err)
	}
	n, err := VerifyLog(log)
	if err != nil || n != c.Len() {
		t.Fatalf("VerifyLog = %d, %v; want %d, nil", n, err, c.Len())
	}
}

// linkLen is the length of a record's leading link, {"prev":"<hex>".
const linkLen = len(`{"prev":"`) + 64 + 1

// TestChainTamperFlipByte flips one byte at several offsets of several
// records and requires Verify to name the first record whose link
// fails: the flipped record itself when the byte lands in its own link,
// else its successor. The newest record has no successor; the live
// chain catches it against its head digest, a cold reader only in its
// link (a FileLog's frame CRC covers the rest).
func TestChainTamperFlipByte(t *testing.T) {
	log, c := chainWorld(t, 30, 2)
	last := len(log.recs) - 1
	for _, i := range []int{0, 1, len(log.recs) / 2, last} {
		for frac := 0; frac < 8; frac++ {
			off := len(log.recs[i]) * frac / 8
			orig := log.recs[i][off]
			log.recs[i][off] = orig ^ 0x20
			want := i
			if off >= linkLen && i < last {
				want = i + 1
			}
			wantBadRecord(t, c.Verify(), want, fmt.Sprintf("flip record %d byte %d", i, off))
			_, err := VerifyLog(log)
			if off >= linkLen && i == last {
				if err != nil {
					t.Fatalf("VerifyLog cannot see a flip in the newest record's body, got: %v", err)
				}
			} else {
				wantBadRecord(t, err, want, fmt.Sprintf("VerifyLog flip record %d byte %d", i, off))
			}
			log.recs[i][off] = orig
		}
	}
	if err := c.Verify(); err != nil {
		t.Fatalf("chain did not survive un-tampering: %v", err)
	}
}

// TestChainTamperDrop drops one record — an interior drop is caught at
// the hole, whose new occupant links to the dropped record; a tail drop
// is caught by the live chain's record count.
func TestChainTamperDrop(t *testing.T) {
	log, c := chainWorld(t, 30, 3)
	orig := log.recs
	n := len(orig)

	for _, i := range []int{0, 1, n / 2, n - 2} {
		log.recs = append(append([][]byte(nil), orig[:i]...), orig[i+1:]...)
		wantBadRecord(t, c.Verify(), i, fmt.Sprintf("drop record %d", i))
		_, err := VerifyLog(log)
		wantBadRecord(t, err, i, fmt.Sprintf("VerifyLog drop record %d", i))
	}

	// Tail truncation: internally consistent, so only the live chain
	// (which knows its count) can see it — the error names the first
	// missing record.
	log.recs = orig[:n-1]
	err := c.Verify()
	wantBadRecord(t, err, n-1, "drop tail record")
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("tail drop error should say truncated: %v", err)
	}
	if _, err := VerifyLog(log); err != nil {
		t.Fatalf("VerifyLog cannot detect tail truncation, got: %v", err)
	}
	log.recs = orig
}

// TestChainTamperSwap swaps two records; the first swapped position
// must be named.
func TestChainTamperSwap(t *testing.T) {
	log, c := chainWorld(t, 30, 4)
	n := len(log.recs)
	for _, pair := range [][2]int{{0, 1}, {2, n - 1}, {n / 2, n/2 + 1}} {
		i, j := pair[0], pair[1]
		log.recs[i], log.recs[j] = log.recs[j], log.recs[i]
		wantBadRecord(t, c.Verify(), i, fmt.Sprintf("swap records %d,%d", i, j))
		_, err := VerifyLog(log)
		wantBadRecord(t, err, i, fmt.Sprintf("VerifyLog swap records %d,%d", i, j))
		log.recs[i], log.recs[j] = log.recs[j], log.recs[i]
	}
}

// TestChainTamperRewrite rewrites one record self-consistently — the
// payload changes, its own predecessor link is kept — the strongest
// single-record forgery. The chain catches it at the first record whose
// predecessor link no longer holds: the successor.
func TestChainTamperRewrite(t *testing.T) {
	log, c := chainWorld(t, 30, 5)
	i := len(log.recs) / 2
	var r Record
	if err := json.Unmarshal(log.recs[i], &r); err != nil {
		t.Fatal(err)
	}
	r.User = "mallory"
	log.recs[i] = appendRecord(nil, storage.DigestOf(log.recs[i-1]), &r)
	wantBadRecord(t, c.Verify(), i+1, "self-consistent rewrite")
	_, err := VerifyLog(log)
	wantBadRecord(t, err, i+1, "VerifyLog self-consistent rewrite")
	if !strings.Contains(err.Error(), "predecessor link broken") {
		t.Fatalf("rewrite should break the successor's predecessor link: %v", err)
	}
}

// TestChainTamperNonCanonical re-encodes a record with different bytes
// but an identical decoded form (a leading space). The link covers raw
// bytes, not a decoded form, so the record no longer opens with its
// link and is named.
func TestChainTamperNonCanonical(t *testing.T) {
	log, c := chainWorld(t, 10, 6)
	i := 3
	log.recs[i] = append([]byte(" "), log.recs[i]...)
	err := c.Verify()
	wantBadRecord(t, err, i, "non-canonical bytes")
	if !strings.Contains(err.Error(), "malformed predecessor link") {
		t.Fatalf("want malformed-link error, got: %v", err)
	}
}

// TestChainTamperInsert inserts a duplicated record; the copy links to
// the original's predecessor, not to the original, so the insertion
// point is named.
func TestChainTamperInsert(t *testing.T) {
	log, c := chainWorld(t, 20, 7)
	i := 5
	ins := append([][]byte(nil), log.recs[:i]...)
	ins = append(ins, append([]byte(nil), log.recs[i]...))
	log.recs = append(ins, log.recs[i:]...)
	wantBadRecord(t, c.Verify(), i+1, "insert duplicate record")
}

// TestChainAppendFailureLatched pins the error path: the observer
// cannot return an error, so the first append failure must surface on
// Sync/Verify/Close and stop further appends.
func TestChainAppendFailureLatched(t *testing.T) {
	g, err := flowgen.Generate(flowgen.Spec{Cells: 4, Shape: flowgen.Chain, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.Populate()
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(&failLog{})
	b.DB.Observe(c)
	for _, call := range []struct {
		name string
		err  error
	}{{"Sync", c.Sync()}, {"Verify", c.Verify()}, {"Close", c.Close()}} {
		if call.err == nil || !strings.Contains(call.err.Error(), "disk full") {
			t.Fatalf("%s = %v, want latched disk full", call.name, call.err)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("chain advanced past a failed append: %d records", c.Len())
	}
}

// TestChainExtraRecords pins Verify's rejection of records the chain
// never appended (a forged tail).
func TestChainExtraRecords(t *testing.T) {
	log, c := chainWorld(t, 10, 10)
	last := log.recs[len(log.recs)-1]
	var r Record
	if err := json.Unmarshal(last, &r); err != nil {
		t.Fatal(err)
	}
	forged := Record{Seq: r.Seq + 1, ID: "Cell:999", Type: "Cell"}
	log.recs = append(log.recs, appendRecord(nil, storage.DigestOf(last), &forged))
	err := c.Verify()
	wantBadRecord(t, err, r.Seq+1, "forged tail record")
	if !strings.Contains(err.Error(), "not appended by this chain") {
		t.Fatalf("want forged-tail error, got: %v", err)
	}
}
