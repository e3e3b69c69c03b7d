package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Hash links make a log tamper-evident. Every linked record is a JSON
// object whose first key is
//
//	{"prev":"<hex SHA-256 of the previous record's bytes>", ...
//
// with record 0 linking to Genesis. Changing, dropping, inserting or
// reordering any record therefore breaks the link of the first record
// after the damage, and VerifyLinks names that record. The digest
// covers the previous record's exact bytes, so there is no canonical
// form to re-derive: any byte change is a broken link. The newest
// record has no successor to vouch for it; on a FileLog its frame CRC
// catches damage, and a live writer can compare it with the head digest
// it remembers.

// Digest is the SHA-256 of one record's bytes.
type Digest [sha256.Size]byte

// Genesis is the predecessor digest of record 0: all zeros.
var Genesis Digest

// DigestOf returns the digest of one record's bytes.
func DigestOf(rec []byte) Digest { return sha256.Sum256(rec) }

const (
	linkPrefix = `{"prev":"`
	linkLen    = len(linkPrefix) + 2*sha256.Size + 1 // prefix, hex digest, closing quote
)

// AppendLink starts a linked record: it appends `{"prev":"<hex>"`. The
// caller appends the rest of the object, from its next ',' or its '}'.
func AppendLink(b []byte, prev Digest) []byte {
	b = append(b, linkPrefix...)
	b = hex.AppendEncode(b, prev[:])
	return append(b, '"')
}

// VerifyLinks checks every record's link and returns the digest of the
// last record (Genesis for none). The error names the first record
// whose link fails.
func VerifyLinks(recs [][]byte) (Digest, error) {
	prev := Genesis
	var want [linkLen]byte
	for i, raw := range recs {
		link := AppendLink(want[:0], prev)
		if len(raw) <= linkLen || !bytes.HasPrefix(raw, []byte(linkPrefix)) || raw[linkLen-1] != '"' {
			return Genesis, fmt.Errorf("storage: record %d: malformed predecessor link", i)
		}
		if !bytes.Equal(raw[:linkLen], link) {
			return Genesis, fmt.Errorf("storage: record %d: predecessor link broken — an earlier record was altered, or records were dropped, inserted or reordered", i)
		}
		prev = DigestOf(raw)
	}
	return prev, nil
}
