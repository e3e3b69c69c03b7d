package provenance

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/history"
	"repro/internal/storage"
)

// This file keeps a standalone derivation-record hash chain: one record
// per committed instance, appended to its own storage.Log and linked by
// the run WAL's link code (storage.AppendLink / storage.VerifyLinks),
// so there is one hash-chain verifier in the repository. flowd does not
// use it — a durable run's linked WAL is its provenance record — but the
// end-to-end benchmark's traced run composes a Chain beside the WAL.

// RecordInput is one input arc of a chain record.
type RecordInput struct {
	Key  string `json:"key"`
	Inst string `json:"inst"`
}

// Record is one link of the chain: the derivation-relevant fields of a
// committed instance and its position (Seq, 0-based in chain order).
// Its encoding opens with the storage link to the previous record.
type Record struct {
	Seq     int           `json:"seq"`
	ID      string        `json:"id"`
	Type    string        `json:"type"`
	Tool    string        `json:"tool"`
	Inputs  []RecordInput `json:"inputs"`
	Data    string        `json:"data"`
	User    string        `json:"user"`
	Created int64         `json:"created"` // unix nanoseconds of the commit timestamp
}

// appendRecord appends r's encoding, linked to prev: a hand-rolled,
// deterministic JSON form (the reflection-free idiom of the WAL
// encoder), since OnCommit runs under the history write lock.
func appendRecord(b []byte, prev storage.Digest, r *Record) []byte {
	b = storage.AppendLink(b, prev)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"id":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"type":`...)
	b = appendString(b, r.Type)
	b = append(b, `,"tool":`...)
	b = appendString(b, r.Tool)
	b = append(b, `,"inputs":[`...)
	for i := range r.Inputs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = appendString(b, r.Inputs[i].Key)
		b = append(b, `,"inst":`...)
		b = appendString(b, r.Inputs[i].Inst)
		b = append(b, '}')
	}
	b = append(b, `],"data":`...)
	b = appendString(b, r.Data)
	b = append(b, `,"user":`...)
	b = appendString(b, r.User)
	b = append(b, `,"created":`...)
	b = strconv.AppendInt(b, r.Created, 10)
	return append(b, '}')
}

// appendString appends a JSON string literal. The fast path copies
// plain ASCII byte-for-byte; anything needing escapes falls back to
// encoding/json (identical output, just slower).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// recordOf builds the chain record for a committed instance at chain
// position seq.
func recordOf(inst *history.Instance, seq int) *Record {
	r := &Record{
		Seq:     seq,
		ID:      string(inst.ID),
		Type:    inst.Type,
		Tool:    string(inst.Tool),
		Data:    string(inst.Data),
		User:    inst.User,
		Created: inst.Created.UnixNano(),
	}
	if len(inst.Inputs) > 0 {
		r.Inputs = make([]RecordInput, len(inst.Inputs))
		for i, in := range inst.Inputs {
			r.Inputs[i] = RecordInput{Key: in.Key, Inst: string(in.Inst)}
		}
	}
	return r
}

// Chain appends linked derivation records to a storage.Log. It
// implements history.CommitObserver: attach it with db.Observe(c) and
// every commit (existing records first, then live ones, in commit
// order) becomes one chain record. Appends are buffered by the log;
// call Sync (or Close) to force the durability barrier.
//
// OnCommit cannot return an error (the observer interface is fire-and-
// forget under the DB's commit lock), so the first append failure is
// latched and surfaced by the next Sync/Verify/Close call.
type Chain struct {
	mu   sync.Mutex
	log  storage.Log
	n    int            // records appended so far
	head storage.Digest // digest of the newest record (storage.Genesis when empty)
	err  error          // first append failure, latched
	buf  []byte         // encode buffer, reused across appends
}

// NewChain starts an empty chain on an empty log.
func NewChain(log storage.Log) *Chain {
	return &Chain{log: log}
}

// Len returns the number of records appended to the chain.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// OnCommit appends one chain record for a committed instance.
func (c *Chain) OnCommit(inst *history.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.buf = appendRecord(c.buf[:0], c.head, recordOf(inst, c.n))
	if err := c.log.Append(c.buf); err != nil {
		c.err = fmt.Errorf("provenance: appending chain record %d (%s): %w", c.n, inst.ID, err)
		return
	}
	c.n++
	c.head = storage.DigestOf(c.buf)
}

// Sync forces the chain's records onto stable storage and returns any
// latched append failure.
func (c *Chain) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.log.Sync()
}

// Close syncs and closes the underlying log.
func (c *Chain) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		c.log.Close()
		return c.err
	}
	if err := c.log.Sync(); err != nil {
		c.log.Close()
		return err
	}
	return c.log.Close()
}

// Verify syncs the log, re-reads every committed record and checks the
// links, then what only the live chain knows: how many records it
// appended and the digest of the newest one. It returns nil iff the
// persisted chain is exactly what was appended; the error names the
// first bad record.
func (c *Chain) Verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	if err := c.log.Sync(); err != nil {
		return err
	}
	recs, err := c.log.Committed()
	if err != nil {
		return fmt.Errorf("provenance: reading chain log: %w", err)
	}
	// Interior damage first; only an intact chain of the wrong length is
	// a pure truncation or extension.
	head, err := storage.VerifyLinks(recs)
	switch {
	case err != nil:
		return fmt.Errorf("provenance: %w", err)
	case len(recs) > c.n:
		return fmt.Errorf("provenance: chain has %d records, expected %d (record %d not appended by this chain)",
			len(recs), c.n, c.n)
	case len(recs) < c.n:
		return fmt.Errorf("provenance: chain truncated: %d records on storage, expected %d (record %d missing)",
			len(recs), c.n, len(recs))
	case head != c.head:
		return fmt.Errorf("provenance: record %d: digest differs from the chain head — record altered", c.n-1)
	}
	return nil
}

// VerifyLog checks the links of a persisted chain and returns the
// number of records. A cold reader cannot vouch for the newest record
// (no later link covers it; on a FileLog its frame CRC does) nor see
// records removed from the tail — a live Chain's Verify can.
func VerifyLog(log storage.Log) (int, error) {
	recs, err := log.Committed()
	if err != nil {
		return 0, fmt.Errorf("provenance: reading chain log: %w", err)
	}
	if _, err := storage.VerifyLinks(recs); err != nil {
		return 0, fmt.Errorf("provenance: %w", err)
	}
	return len(recs), nil
}
