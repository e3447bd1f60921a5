package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"toposhot/internal/trace"
)

// The event log's artifact and live JSONL lines are trace's JSONL format
// (trace.WriteJSONL, trace.MarshalRecord). The logfmt text here is a
// rendering only, like the Chrome export: nothing reads it back.

// writeText renders an event-log snapshot in the human logfmt-style line
// format, lanes in id order. The same renderer backs the live text sink.
func writeText(w io.Writer, t *trace.Trace) error {
	bw := bufio.NewWriter(w)
	for _, l := range t.Lanes {
		for i := range l.Records {
			if err := writeRecordText(bw, l.Name, &l.Records[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendValue appends a logfmt value, quoted when empty or when it holds
// a space, tab, newline, quote or '='.
func appendValue(b []byte, s string) []byte {
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.AppendQuote(b, s)
	}
	return append(b, s...)
}

// appendAttr renders " key=value" with the logfmt quoting rules.
func appendAttr(b []byte, a trace.Attr) []byte {
	b = append(b, ' ')
	b = append(b, a.Key...)
	b = append(b, '=')
	switch v := a.Value().(type) {
	case int64:
		return strconv.AppendInt(b, v, 10)
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, v)
	case string:
		return appendValue(b, v)
	}
	return b
}

// FormatLine renders "msg key=value ..." without the level/time prefix — the
// fallback rendering for CLI paths that must speak even when structured
// logging is off (fatal errors under -log-level off).
func FormatLine(msg string, fields ...trace.Attr) string {
	b := appendValue(make([]byte, 0, 128), msg)
	for _, a := range fields {
		b = appendAttr(b, a)
	}
	return string(b)
}

// writeRecordText writes one event as a logfmt-style line (live text sink):
//
//	level=info t=12.345 scope=census msg=campaign-started nodes=30 k=5
func writeRecordText(w io.Writer, scopeName string, r *trace.Record) error {
	b := append(make([]byte, 0, 128), "level="...)
	b = append(b, r.Severity.String()...)
	b = append(b, " t="...)
	b = strconv.AppendFloat(b, r.Start, 'f', 3, 64)
	if scopeName != "" {
		b = append(b, " scope="...)
		b = appendValue(b, scopeName)
	}
	b = append(b, " msg="...)
	b = appendValue(b, r.Name)
	for _, a := range r.AttrList() {
		b = appendAttr(b, a)
	}
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}

// writeRecordJSON writes one record as its trace JSONL line to w (live
// JSONL sink).
func writeRecordJSON(w io.Writer, lane int, r *trace.Record) error {
	raw, err := trace.MarshalRecord(lane, r)
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}
