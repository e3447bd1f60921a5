package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"toposhot/internal/trace"
)

// failWriter fails after n successful writes.
type failWriter struct {
	n    int
	seen int
}

var errWrite = errors.New("sink failed")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.seen >= w.n {
		return 0, errWrite
	}
	w.seen++
	return len(p), nil
}

func sampleLog() *trace.Trace {
	lg := New(Options{Level: LevelDebug})
	lg.SetClock(func() float64 { return 1.0 })
	a := lg.Scope("census", func() float64 { return 2.0 })
	lg.Info("campaign-started", trace.Int("nodes", 30), trace.Float("rate", 0.5))
	a.Debug("batch-done", trace.Int("batch", 1), trace.Bool("ok", true))
	a.Warn("slow", trace.String("why", "queue depth"))
	lg.Error("failed", Err(errors.New("boom")))
	return lg.Snapshot()
}

// TestJSONLRoundTrip: the event-log artifact is trace JSONL, and levels
// survive trace's reader.
func TestJSONLRoundTrip(t *testing.T) {
	orig := sampleLog()
	var a bytes.Buffer
	if err := orig.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&a)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Lanes[1].Records[1]; got.Name != "slow" || got.Severity != trace.SeverityWarn {
		t.Fatalf("census scope's second event = %+v, want a warn-level slow", got)
	}
	var b bytes.Buffer
	if err := back.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := orig.WriteJSONL(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Fatalf("round trip not lossless:\n%s\nvs\n%s", c.String(), b.String())
	}
}

// TestJSONLReadErrors: event-log lines trace's reader must reject — an
// unknown level and more attributes than an event carries (8).
func TestJSONLReadErrors(t *testing.T) {
	cases := map[string]string{
		"malformed": "{not json\n",
		"unknown":   `{"kind":"mystery"}` + "\n",
		"badlevel":  `{"kind":"event","lane":0,"start":1,"end":1,"level":"loud","name":"x"}` + "\n",
		"overflow": `{"kind":"event","lane":0,"start":1,"end":1,"level":"info","name":"x","attrs":[` +
			strings.Repeat(`{"k":"a","i":1},`, 8) + `{"k":"z","i":1}]}` + "\n",
	}
	for name, in := range cases {
		if _, err := trace.ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL should fail", name)
		}
	}
}

func TestJSONLReadImplicitScopeAndBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"event","lane":3,"seq":1,"start":0.5,"end":0.5,"level":"info","name":"orphan"}` + "\n"
	lg, err := trace.ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Lanes) != 1 || lg.Lanes[0].ID != 3 || len(lg.Lanes[0].Records) != 1 ||
		lg.Lanes[0].Records[0].Severity != trace.SeverityInfo {
		t.Fatalf("log = %+v", lg)
	}
}

func TestWriteJSONLPropagatesWriteFailure(t *testing.T) {
	orig := sampleLog()
	// bufio coalesces, so force every flush stage: n=0 fails immediately.
	if err := orig.WriteJSONL(&failWriter{n: 0}); err == nil {
		t.Fatal("WriteJSONL on a dead sink should fail")
	}
	if err := writeText(&failWriter{n: 0}, orig); err == nil {
		t.Fatal("WriteText on a dead sink should fail")
	}
}

func TestWriteTextRendersAllKinds(t *testing.T) {
	var buf bytes.Buffer
	if err := writeText(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"level=info t=1.000 scope=main msg=campaign-started nodes=30 rate=0.5",
		"level=debug t=2.000 scope=census msg=batch-done batch=1 ok=true",
		`msg=slow why="queue depth"`,
		"level=error t=1.000 scope=main msg=failed err=boom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestLiveSinkWriteFailureDoesNotPanic(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Live: &failWriter{n: 0}, LiveFormat: FormatText})
	lg.Info("still recorded")
	if got := len(lg.Snapshot().Lanes[0].Records); got != 1 {
		t.Fatalf("event not recorded past a dead live sink: %d", got)
	}
}
