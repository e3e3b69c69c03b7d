package storage

import (
	"encoding/base64"
	"encoding/json"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/trace"
)

// Hand-rolled JSON encoding of WAL records. The writer goroutine
// timeshares with the scheduler it serves — on a single-core host
// every cycle it burns comes straight out of dispatch throughput — so
// records are encoded reflection-free into a buffer the writer reuses
// across appends. The output is plain JSON, decodable by encoding/json
// with the structs' tags; decoding (recovery) is off the hot path and
// stays reflective. Output keys are emitted in deterministic order
// (struct order; sorted for the outputs map), so identical records
// produce identical bytes.

// appendWALRecord appends one record envelope as JSON, opened by its
// link to the previous record (link.go). Exactly one of meta / ev is
// set (ev counts as set when ev.Kind != ""); commit may ride along with
// an event.
func appendWALRecord(b []byte, prev Digest, meta *RunMeta, ev *trace.Event, commit *UnitCommit) []byte {
	b = AppendLink(b, prev)
	if meta != nil {
		b = append(b, `,"meta":{"id":`...)
		b = appendString(b, meta.ID)
		b = append(b, `,"flow":`...)
		b = appendString(b, meta.Flow)
		b = append(b, `,"user":`...)
		b = appendString(b, meta.User)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(meta.Version), 10)
		if len(meta.Scenario) > 0 {
			b = append(b, `,"scenario":`...)
			b = append(b, meta.Scenario...)
		}
		b = append(b, '}')
	}
	if ev != nil && ev.Kind != "" {
		b = append(b, `,"event":`...)
		b = appendEvent(b, ev)
	}
	if commit != nil {
		b = append(b, `,"commit":`...)
		b = appendCommit(b, commit)
	}
	return append(b, '}')
}

// appendEvent encodes one trace event with the same omitempty shape as
// the struct's tags.
func appendEvent(b []byte, e *trace.Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	if e.Run != "" {
		b = append(b, `,"run":`...)
		b = appendString(b, e.Run)
	}
	b = append(b, `,"kind":`...)
	b = appendString(b, string(e.Kind))
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(e.Job), 10)
	b = append(b, `,"combo":`...)
	b = strconv.AppendInt(b, int64(e.Combo), 10)
	b = append(b, `,"unit":`...)
	b = strconv.AppendInt(b, int64(e.Unit), 10)
	if len(e.Nodes) > 0 {
		b = append(b, `,"nodes":[`...)
		for i, n := range e.Nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	if e.Type != "" {
		b = append(b, `,"type":`...)
		b = appendString(b, e.Type)
	}
	if e.Attempt != 0 {
		b = append(b, `,"attempt":`...)
		b = strconv.AppendInt(b, int64(e.Attempt), 10)
	}
	if len(e.Insts) > 0 {
		b = append(b, `,"insts":[`...)
		for i, s := range e.Insts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s)
		}
		b = append(b, ']')
	}
	if e.Blame != 0 {
		b = append(b, `,"blame":`...)
		b = strconv.AppendInt(b, int64(e.Blame), 10)
	}
	if e.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, e.Err)
	}
	if e.Scheduler != "" {
		b = append(b, `,"scheduler":`...)
		b = appendString(b, e.Scheduler)
	}
	if e.Workers != 0 {
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(e.Workers), 10)
	}
	if e.Jobs != 0 {
		b = append(b, `,"jobs":`...)
		b = strconv.AppendInt(b, int64(e.Jobs), 10)
	}
	if e.Units != 0 {
		b = append(b, `,"units":`...)
		b = strconv.AppendInt(b, int64(e.Units), 10)
	}
	if e.Committed != 0 {
		b = append(b, `,"committed":`...)
		b = strconv.AppendInt(b, int64(e.Committed), 10)
	}
	if e.Failed != 0 {
		b = append(b, `,"failed":`...)
		b = strconv.AppendInt(b, int64(e.Failed), 10)
	}
	if e.Skipped != 0 {
		b = append(b, `,"skipped":`...)
		b = strconv.AppendInt(b, int64(e.Skipped), 10)
	}
	if e.WaitMicros != 0 {
		b = append(b, `,"wait_us":`...)
		b = strconv.AppendInt(b, e.WaitMicros, 10)
	}
	if e.DurMicros != 0 {
		b = append(b, `,"dur_us":`...)
		b = strconv.AppendInt(b, e.DurMicros, 10)
	}
	if e.BusyMicros != 0 {
		b = append(b, `,"busy_us":`...)
		b = strconv.AppendInt(b, e.BusyMicros, 10)
	}
	if e.ElapsedMicros != 0 {
		b = append(b, `,"elapsed_us":`...)
		b = strconv.AppendInt(b, e.ElapsedMicros, 10)
	}
	return append(b, '}')
}

// appendCommit encodes a unit's durable payload; artifact bytes are
// base64 as encoding/json would emit them, outputs in sorted type
// order so the encoding is deterministic.
func appendCommit(b []byte, c *UnitCommit) []byte {
	b = append(b, `{"unit":`...)
	b = strconv.AppendInt(b, int64(c.Unit), 10)
	b = append(b, `,"insts":[`...)
	for i, s := range c.Insts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	b = append(b, `],"outputs":{`...)
	if len(c.Outputs) == 1 {
		for typ, data := range c.Outputs {
			b = appendString(b, typ)
			b = append(b, ':', '"')
			b = base64.StdEncoding.AppendEncode(b, data)
			b = append(b, '"')
		}
	} else if len(c.Outputs) > 1 {
		types := make([]string, 0, len(c.Outputs))
		for typ := range c.Outputs {
			types = append(types, typ)
		}
		sort.Strings(types)
		for i, typ := range types {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, typ)
			b = append(b, ':', '"')
			b = base64.StdEncoding.AppendEncode(b, c.Outputs[typ])
			b = append(b, '"')
		}
	}
	b = append(b, '}')
	if c.MemoKey != "" {
		b = append(b, `,"memo_key":`...)
		b = appendString(b, c.MemoKey)
	}
	return append(b, '}')
}

// appendString quotes s, falling back to encoding/json for the rare
// string needing escapes (control characters, quotes, non-ASCII).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			esc, _ := json.Marshal(s)
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
