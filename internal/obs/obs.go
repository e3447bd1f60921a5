// Package obs is the repository's campaign event log and what is built on
// it: leveled structured events recorded as internal/trace event records,
// a probe cost-attribution ledger, a stream-consuming watchdog, and the live
// HTTP dashboard that serves them next to the metrics registry and the
// tracer.
//
// An event is a trace.Record of KindEvent whose Severity carries its level;
// each logger scope is a lane of the log's own trace sink, separate from the
// process tracer, so the event log never shares a file with -trace. The
// ring, the snapshot, the attribute type and the JSONL codec are all
// trace's; this package adds level filtering, the live stderr sink and the
// taps the watchdog and the dashboard's SSE stream follow.
//
// Design constraints, in order (the same contract as internal/trace):
//
//   - Determinism. Recorded timestamps come from the engine's virtual clock —
//     never time.Now() — and every event carries its lane's monotonic
//     sequence number. The deterministic artifact is the buffered Snapshot
//     (lanes in id order, records in seq order); same-seed runs serialize it
//     to byte-identical JSONL at any -parallel/-lanes width, provided scopes
//     are created before any parallel fan-out (the sweepLanes convention).
//     The optional live sink is arrival-ordered and operator-facing only.
//   - Nil safety. A nil *Logger and a nil *Ledger no-op every method behind a
//     single branch, so call sites never guard — the same convention the
//     metrics-nilsafe and trace-nilsafe lint rules enforce for their packages.
//   - Constant names. Event messages are record names, so the trace-spanname
//     lint rule checks Debug/Info/Warn/Error call sites exactly like
//     StartSpan/Event ones.
//
// Typical wiring:
//
//	lg, _ := obs.NewCLI("info", "text", os.Stderr)
//	obs.Enable(lg)                      // measurers self-wire, like metrics
//	lg.Info("campaign-started", trace.Int("nodes", 30))
//	...
//	_ = lg.Snapshot().WriteJSONL(f)     // the deterministic artifact
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"toposhot/internal/trace"
)

// Level orders event severities; events below a logger's level are dropped.
type Level uint8

const (
	// LevelDebug records everything, including per-batch progress events.
	LevelDebug Level = iota
	// LevelInfo is the CLI default: campaign lifecycle and phase summaries.
	LevelInfo
	// LevelWarn records anomalies (watchdog findings, degraded phases).
	LevelWarn
	// LevelError records failures.
	LevelError
	// LevelOff records nothing; New returns a nil logger for it.
	LevelOff
)

// severity is the level as the trace record carries it.
func (l Level) severity() trace.Severity { return trace.Severity(l) + trace.SeverityDebug }

// ParseLevel parses the -log-level flag values debug|info|warn|error|off.
func ParseLevel(s string) (Level, error) {
	if s == "off" {
		return LevelOff, nil
	}
	sev, err := trace.ParseSeverity(s)
	if err != nil {
		return LevelOff, fmt.Errorf("obs: unknown level %q (want debug|info|warn|error|off)", s)
	}
	return Level(sev - trace.SeverityDebug), nil
}

// String renders the level as its flag spelling.
func (l Level) String() string {
	if l >= LevelOff {
		return "off"
	}
	return l.severity().String()
}

// Format selects the live-sink rendering.
type Format uint8

const (
	// FormatText is the human logfmt-style line format (-log-format text).
	FormatText Format = iota
	// FormatJSONL renders each live event as its trace JSONL record line.
	FormatJSONL
)

// ParseFormat parses the -log-format flag values text|jsonl.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "jsonl":
		return FormatJSONL, nil
	}
	return FormatText, fmt.Errorf("obs: unknown format %q (want text|jsonl)", s)
}

// Err returns the conventional "err" attribute for an error value.
func Err(err error) trace.Attr {
	if err == nil {
		return trace.String("err", "")
	}
	return trace.String("err", err.Error())
}

// Options configures a logger.
type Options struct {
	// Level is the minimum severity recorded; LevelOff yields a nil logger.
	Level Level
	// Capacity is the per-scope ring size in events; 0 means
	// trace.DefaultCapacity.
	Capacity int
	// Live, when non-nil, receives every event as it happens, in arrival
	// order (non-deterministic under parallelism; operator-facing only).
	Live io.Writer
	// LiveFormat selects the live sink's rendering.
	LiveFormat Format
}

// sink is the live state shared by a logger's scope views; the recorded
// events live in the scopes' trace lanes.
type sink struct {
	level Level

	liveMu     sync.Mutex
	live       io.Writer
	liveFormat Format
	// taps is copy-on-write: emit iterates the slice it read under liveMu
	// after releasing the lock, so Tap and its cancel never write into a
	// backing array a reader may hold.
	taps    []tap
	nextTap int
}

// tap is one registered live-event callback.
type tap struct {
	id int
	fn func(lane int, r trace.Record)
}

// Logger is a scope view over a shared event log: one lane of the log's own
// trace sink. The zero of its pointer type is the disabled logger: every
// method on a nil *Logger is a no-op behind one branch.
type Logger struct {
	s    *sink
	tr   *trace.Tracer // this scope's lane
	name string
}

// New returns a logger recording at the given level, viewing a fresh sink's
// root scope (lane 0, "main"). A LevelOff logger is returned as nil, keeping
// the whole instrumentation tree on the zero-cost path.
func New(o Options) *Logger {
	if o.Level >= LevelOff {
		return nil
	}
	tr := trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true, Capacity: o.Capacity})
	s := &sink{level: o.Level, live: o.Live, liveFormat: o.LiveFormat}
	return &Logger{s: s, tr: tr, name: "main"}
}

// NewCLI builds a logger from the shared -log-level/-log-format CLI flag
// values, with live lines on w (typically os.Stderr). Level "off" yields a
// nil logger, which no-ops everything.
func NewCLI(level, format string, w io.Writer) (*Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	fm, err := ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return New(Options{Level: lv, Live: w, LiveFormat: fm}), nil
}

// Scope creates a new recording track (a lane) on the logger's sink and
// returns a view of it. Scope ids are assigned in creation order; create
// scopes before a parallel fan-out to keep ids (and therefore snapshot
// order) deterministic. clock supplies the scope's virtual time; nil records
// zeros until SetClock. On a nil logger, Scope returns nil.
func (l *Logger) Scope(name string, clock func() float64) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s, tr: l.tr.Lane(name, clock), name: name}
}

// SetClock binds the scope to a virtual clock (typically Network.Now). It
// should be set before recording; events recorded without a clock carry
// time 0.
func (l *Logger) SetClock(clock func() float64) {
	if l == nil {
		return
	}
	l.tr.SetClock(clock)
}

// Level returns the minimum recorded severity; LevelOff on a nil logger.
func (l *Logger) Level() Level {
	if l == nil {
		return LevelOff
	}
	return l.s.level
}

// ScopeName returns the name of the scope with the given id, or "".
func (l *Logger) ScopeName(id int) string {
	if l == nil {
		return ""
	}
	return l.tr.LaneName(id)
}

// Tap registers a live-event callback (watchdogs, SSE hubs) and returns its
// cancel function. Callbacks get the scope id and a copy of the record; they
// run synchronously on the emitting goroutine, in arrival order, and must
// not block. On a nil logger Tap returns a no-op cancel.
func (l *Logger) Tap(fn func(lane int, r trace.Record)) (cancel func()) {
	if l == nil || fn == nil {
		return func() {}
	}
	s := l.s
	s.liveMu.Lock()
	s.nextTap++
	id := s.nextTap
	s.taps = append(s.taps[:len(s.taps):len(s.taps)], tap{id: id, fn: fn})
	s.liveMu.Unlock()
	return func() {
		s.liveMu.Lock()
		for i, t := range s.taps {
			if t.id == id {
				s.taps = append(s.taps[:i:i], s.taps[i+1:]...)
				break
			}
		}
		s.liveMu.Unlock()
	}
}

// Debug records an event at LevelDebug. msg must be a compile-time constant
// (trace-spanname lint rule).
func (l *Logger) Debug(msg string, fields ...trace.Attr) { l.log(LevelDebug, msg, fields) }

// Info records an event at LevelInfo.
func (l *Logger) Info(msg string, fields ...trace.Attr) { l.log(LevelInfo, msg, fields) }

// Warn records an event at LevelWarn.
func (l *Logger) Warn(msg string, fields ...trace.Attr) { l.log(LevelWarn, msg, fields) }

// Error records an event at LevelError.
func (l *Logger) Error(msg string, fields ...trace.Attr) { l.log(LevelError, msg, fields) }

func (l *Logger) log(lv Level, msg string, fields []trace.Attr) {
	if l == nil || lv < l.s.level {
		return
	}
	r := l.tr.Log(lv.severity(), msg, fields...)
	l.s.emit(l.tr.LaneID(), l.name, &r)
}

// emit fans one record out to the live sink and the registered taps, in
// arrival order (operator path; never part of the deterministic artifact).
func (s *sink) emit(lane int, laneName string, r *trace.Record) {
	s.liveMu.Lock()
	if s.live != nil {
		if s.liveFormat == FormatJSONL {
			writeRecordJSON(s.live, lane, r)
		} else {
			writeRecordText(s.live, laneName, r)
		}
	}
	taps := s.taps
	s.liveMu.Unlock()
	for _, t := range taps {
		t.fn(lane, *r)
	}
}

// Snapshot copies the event log into a trace snapshot: scopes as lanes in
// id order, events in sequence order. Safe to call while scopes are
// recording. Scopes with no events are omitted, so pre-created-but-unused
// scopes never perturb exports. A nil logger snapshots to an empty trace.
func (l *Logger) Snapshot() *trace.Trace {
	if l == nil {
		return &trace.Trace{}
	}
	return l.tr.Snapshot()
}

// enabled is the process-wide default logger consulted by subsystem
// constructors (core.NewMeasurer) when none was wired explicitly — the same
// auto-wiring convention as metrics.Enabled and trace.Enabled.
var enabled atomic.Pointer[Logger]

// Enable installs l as the process default logger. Constructors that run
// after this call wire themselves to it. Passing nil turns the default off.
func Enable(l *Logger) {
	enabled.Store(l)
}

// Enabled returns the process default logger, or nil when logging is off.
func Enabled() *Logger {
	return enabled.Load()
}
