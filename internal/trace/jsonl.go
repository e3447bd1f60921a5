package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL format is one JSON object per line, stream-friendly: a header
// line, then each lane's meta line followed by its records in sequence
// order. Unlike the Chrome export it round-trips losslessly through
// ReadJSONL, which is what the FuzzTraceJSONL target pins down. The obs
// event log writes the same format: its events are event records whose
// "level" field carries their severity.

// jsonlVersion is bumped on incompatible line-schema changes.
const jsonlVersion = 1

// wireAttr is one attribute on the wire; exactly one payload field is set.
type wireAttr struct {
	K string   `json:"k"`
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	B *bool    `json:"b,omitempty"`
}

func toWireAttr(a Attr) wireAttr {
	w := wireAttr{K: a.Key}
	switch a.kind {
	case attrInt:
		n := a.num
		w.I = &n
	case attrFloat:
		f := a.f
		w.F = &f
	case attrBool:
		b := a.num != 0
		w.B = &b
	default:
		s := a.str
		w.S = &s
	}
	return w
}

func fromWireAttr(w wireAttr) Attr {
	switch {
	case w.I != nil:
		return Int(w.K, *w.I)
	case w.F != nil:
		return Float(w.K, *w.F)
	case w.B != nil:
		return Bool(w.K, *w.B)
	case w.S != nil:
		return String(w.K, *w.S)
	}
	return String(w.K, "")
}

// jsonlLine is the union of all line kinds; Kind selects the shape.
type jsonlLine struct {
	Kind string `json:"kind"`
	// header
	V             int  `json:"v,omitempty"`
	Deterministic bool `json:"deterministic,omitempty"`
	// lane
	Lane    int     `json:"lane"`
	Name    string  `json:"name,omitempty"`
	Dropped uint64  `json:"dropped,omitempty"`
	Now     float64 `json:"now,omitempty"`
	// span / event
	ID     uint64     `json:"id,omitempty"`
	Parent uint64     `json:"parent,omitempty"`
	Seq    uint64     `json:"seq,omitempty"`
	Start  float64    `json:"start"`
	End    float64    `json:"end"`
	WallNs int64      `json:"wall_ns,omitempty"`
	Open   bool       `json:"open,omitempty"`
	Level  string     `json:"level,omitempty"`
	Attrs  []wireAttr `json:"attrs,omitempty"`
}

// recordLine is r's wire line on the given lane.
func recordLine(lane int, r *Record) jsonlLine {
	line := jsonlLine{
		Kind:   "span",
		Lane:   lane,
		Name:   r.Name,
		ID:     r.ID,
		Parent: r.Parent,
		Seq:    r.Seq,
		Start:  r.Start,
		End:    r.End,
		WallNs: r.WallNs,
		Open:   r.Open,
		Level:  r.Severity.String(),
	}
	if r.Kind == KindEvent {
		line.Kind = "event"
	}
	if r.NAttrs > 0 {
		line.Attrs = make([]wireAttr, r.NAttrs)
		for j, a := range r.AttrList() {
			line.Attrs[j] = toWireAttr(a)
		}
	}
	return line
}

// MarshalRecord renders r as the single JSONL record line (no newline)
// WriteJSONL would write for it on the given lane: the live form of one
// record, as the event log's JSONL sink and SSE stream send it.
func MarshalRecord(lane int, r *Record) ([]byte, error) {
	return json.Marshal(recordLine(lane, r))
}

// WriteJSONL writes the trace as JSON Lines: a header, then per lane a lane
// line followed by that lane's records. Deterministic given deterministic
// records (wall_ns is omitted when zero, which deterministic mode
// guarantees).
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlLine{Kind: "header", V: jsonlVersion, Deterministic: t.Deterministic}); err != nil {
		return err
	}
	for _, l := range t.Lanes {
		if err := enc.Encode(jsonlLine{Kind: "lane", Lane: l.ID, Name: l.Name, Dropped: l.Dropped, Now: l.Now}); err != nil {
			return err
		}
		for i := range l.Records {
			if err := enc.Encode(recordLine(l.ID, &l.Records[i])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace stream back into a Trace. Lanes keep their
// first-seen order and metadata; records keep file order within their lane.
// Records for a lane with no preceding lane line get an implicit unnamed
// lane. Unknown line kinds and severities are an error, as is any malformed
// line.
func ReadJSONL(r io.Reader) (*Trace, error) {
	out := &Trace{}
	laneIdx := make(map[int]int)
	getLane := func(id int) *LaneSnapshot {
		if i, ok := laneIdx[id]; ok {
			return &out.Lanes[i]
		}
		out.Lanes = append(out.Lanes, LaneSnapshot{ID: id})
		laneIdx[id] = len(out.Lanes) - 1
		return &out.Lanes[len(out.Lanes)-1]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("trace: jsonl line %d: %w", n, err)
		}
		switch line.Kind {
		case "header":
			out.Deterministic = line.Deterministic
		case "lane":
			l := getLane(line.Lane)
			l.Name = line.Name
			l.Dropped = line.Dropped
			l.Now = line.Now
		case "span", "event":
			if len(line.Attrs) > maxAttrs {
				return nil, fmt.Errorf("trace: jsonl line %d: %d attrs exceeds the record limit %d", n, len(line.Attrs), maxAttrs)
			}
			rec := Record{
				Name:   line.Name,
				ID:     line.ID,
				Parent: line.Parent,
				Seq:    line.Seq,
				Start:  line.Start,
				End:    line.End,
				WallNs: line.WallNs,
				Open:   line.Open,
			}
			if line.Kind == "event" {
				rec.Kind = KindEvent
			}
			if line.Level != "" {
				sev, err := ParseSeverity(line.Level)
				if err != nil {
					return nil, fmt.Errorf("trace: jsonl line %d: %w", n, err)
				}
				rec.Severity = sev
			}
			for _, a := range line.Attrs {
				rec.NAttrs = setAttr(&rec.Attrs, rec.NAttrs, fromWireAttr(a))
			}
			l := getLane(line.Lane)
			l.Records = append(l.Records, rec)
		default:
			return nil, fmt.Errorf("trace: jsonl line %d: unknown kind %q", n, line.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
