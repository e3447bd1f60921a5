package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"toposhot/internal/trace"
)

func TestNilLoggerNoops(t *testing.T) {
	var lg *Logger
	lg.Info("ignored", trace.Int("x", 1))
	lg.Error("ignored")
	lg.SetClock(func() float64 { return 1 })
	if got := lg.Scope("child", nil); got != nil {
		t.Fatalf("nil.Scope = %v, want nil", got)
	}
	if lg.Level() != LevelOff {
		t.Fatalf("nil.Level = %v, want off", lg.Level())
	}
	cancel := lg.Tap(func(int, trace.Record) {})
	cancel()
	snap := lg.Snapshot()
	if len(snap.Lanes) != 0 {
		t.Fatalf("nil snapshot has %d scopes", len(snap.Lanes))
	}
	var buf bytes.Buffer
	if err := snap.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestNewOffIsNil(t *testing.T) {
	if lg := New(Options{Level: LevelOff}); lg != nil {
		t.Fatal("New(off) should return nil")
	}
	if lg, err := NewCLI("off", "text", nil); err != nil || lg != nil {
		t.Fatalf("NewCLI(off) = %v, %v", lg, err)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for _, s := range []string{"debug", "info", "warn", "error", "off"} {
		lv, err := ParseLevel(s)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", s, err)
		}
		if lv.String() != s {
			t.Fatalf("ParseLevel(%q).String() = %q", s, lv.String())
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel(verbose) should fail")
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml) should fail")
	}
}

func TestLevelFiltering(t *testing.T) {
	lg := New(Options{Level: LevelWarn})
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	snap := lg.Snapshot()
	if len(snap.Lanes) != 1 || len(snap.Lanes[0].Records) != 2 {
		t.Fatalf("snapshot = %+v, want 2 events in 1 scope", snap)
	}
	evs := snap.Lanes[0].Records
	if evs[0].Name != "w" || evs[0].Severity != trace.SeverityWarn ||
		evs[1].Name != "e" || evs[1].Severity != trace.SeverityError {
		t.Fatalf("events = %+v", evs)
	}
}

func TestClockSeqAndFields(t *testing.T) {
	now := 0.0
	lg := New(Options{Level: LevelDebug})
	lg.SetClock(func() float64 { return now })
	now = 1.5
	lg.Info("first", trace.Int("n", 7), trace.String("s", "x"), trace.Bool("ok", true), trace.Float("f", 0.5))
	now = 2.5
	lg.Info("second", trace.Int("n", 8), trace.Int("n", 9)) // duplicate key overwrites
	ev := lg.Snapshot().Lanes[0].Records
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", ev[0].Seq, ev[1].Seq)
	}
	if ev[0].Start != 1.5 || ev[1].Start != 2.5 || ev[0].Kind != trace.KindEvent {
		t.Fatalf("times = %g, %g", ev[0].Start, ev[1].Start)
	}
	if f, ok := ev[0].Attr("n"); !ok || f.Value() != int64(7) {
		t.Fatalf("field n = %+v, %v", f, ok)
	}
	if len(ev[0].AttrList()) != 4 {
		t.Fatalf("got %d fields", len(ev[0].AttrList()))
	}
	if f, _ := ev[1].Attr("n"); f.Value() != int64(9) {
		t.Fatalf("duplicate key kept %v, want 9", f.Value())
	}
}

func TestFieldOverflowDropsExtras(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	const maxFields = 8
	fields := make([]trace.Attr, 0, maxFields+3)
	for i := 0; i < maxFields+3; i++ {
		fields = append(fields, trace.Int(fmt.Sprintf("k%d", i), int64(i)))
	}
	lg.Info("full", fields...)
	ev := lg.Snapshot().Lanes[0].Records[0]
	if ev.NAttrs != maxFields {
		t.Fatalf("NAttrs = %d, want %d", ev.NAttrs, maxFields)
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 4})
	for i := 0; i < 10; i++ {
		lg.Info("e", trace.Int("i", int64(i)))
	}
	sc := lg.Snapshot().Lanes[0]
	if sc.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", sc.Dropped)
	}
	first, _ := sc.Records[0].Attr("i")
	last, _ := sc.Records[len(sc.Records)-1].Attr("i")
	if len(sc.Records) != 4 || first.Value() != int64(6) || last.Value() != int64(9) {
		t.Fatalf("ring window = %+v", sc.Records)
	}
}

func TestScopesSnapshotInIDOrderEmptyOmitted(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	a := lg.Scope("a", nil)
	_ = lg.Scope("unused", nil)
	b := lg.Scope("b", nil)
	b.Info("on-b")
	a.Info("on-a")
	lg.Info("on-main")
	snap := lg.Snapshot()
	if len(snap.Lanes) != 3 {
		t.Fatalf("got %d scopes, want 3 (empty omitted)", len(snap.Lanes))
	}
	names := []string{snap.Lanes[0].Name, snap.Lanes[1].Name, snap.Lanes[2].Name}
	if names[0] != "main" || names[1] != "a" || names[2] != "b" {
		t.Fatalf("scope order = %v", names)
	}
	if lg.ScopeName(a.tr.LaneID()) != "a" || lg.ScopeName(99) != "" {
		t.Fatal("ScopeName lookup broken")
	}
}

// TestSerialVsParallelByteIdentity is the tentpole invariant: scopes created
// before a fan-out record the same bytes whether their streams are emitted
// serially or from concurrent goroutines.
func TestSerialVsParallelByteIdentity(t *testing.T) {
	const scopes, events = 8, 200
	run := func(parallel bool) []byte {
		lg := New(Options{Level: LevelDebug})
		workers := make([]*Logger, scopes)
		for i := range workers {
			i := i
			clock := func() float64 { return float64(i) } // per-scope fixed virtual clock
			workers[i] = lg.Scope(fmt.Sprintf("worker-%d", i), clock)
		}
		emit := func(w *Logger, i int) {
			for j := 0; j < events; j++ {
				w.Info("tick", trace.Int("worker", int64(i)), trace.Int("j", int64(j)))
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for i, w := range workers {
				wg.Add(1)
				go func(w *Logger, i int) {
					defer wg.Done()
					emit(w, i)
				}(w, i)
			}
			wg.Wait()
		} else {
			for i, w := range workers {
				emit(w, i)
			}
		}
		var buf bytes.Buffer
		if err := lg.Snapshot().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(false)
	for trial := 0; trial < 4; trial++ {
		if par := run(true); !bytes.Equal(serial, par) {
			t.Fatalf("trial %d: parallel snapshot differs from serial", trial)
		}
	}
}

func TestLiveSinkTextFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Level: LevelInfo, Live: &buf, LiveFormat: FormatText})
	lg.SetClock(func() float64 { return 3.25 })
	lg.Info("campaign-started", trace.Int("nodes", 30), trace.String("preset", "goerli small"))
	want := `level=info t=3.250 scope=main msg=campaign-started nodes=30 preset="goerli small"` + "\n"
	if buf.String() != want {
		t.Fatalf("live text = %q, want %q", buf.String(), want)
	}
}

func TestLiveSinkJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Level: LevelInfo, Live: &buf, LiveFormat: FormatJSONL})
	sc := lg.Scope("census", nil)
	sc.Info("hello", trace.Bool("ok", true))
	line := strings.TrimSpace(buf.String())
	want := `{"kind":"event","lane":1,"name":"hello","id":1,"seq":1,"start":0,"end":0,"level":"info","attrs":[{"k":"ok","b":true}]}`
	if line != want {
		t.Fatalf("live jsonl = %s, want the trace record line %s", line, want)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
}

func TestTapAndCancel(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	sc := lg.Scope("census", nil)
	var got []string
	var lanes []int
	cancel := lg.Tap(func(lane int, r trace.Record) {
		got = append(got, r.Name)
		lanes = append(lanes, lane)
	})
	sc.Info("one")
	cancel()
	sc.Info("two")
	if len(got) != 1 || got[0] != "one" || lanes[0] != 1 {
		t.Fatalf("tap saw %v on lanes %v, want [one] on [1]", got, lanes)
	}
}

// TestTapCancelRacesEmit registers and cancels taps while another goroutine
// emits. Emit reads the tap list after releasing the lock, so cancel must
// never write into a list a reader may hold (go test -race), and a cancelled
// tap must leave no slot behind (one per disconnected /events client).
func TestTapCancelRacesEmit(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 16})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				lg.Info("spin")
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		cancel := lg.Tap(func(int, trace.Record) {})
		cancel()
	}
	close(stop)
	<-done
	lg.s.liveMu.Lock()
	n := len(lg.s.taps)
	lg.s.liveMu.Unlock()
	if n != 0 {
		t.Fatalf("%d tap slots left after every tap was cancelled", n)
	}
}

func TestEnableEnabled(t *testing.T) {
	defer Enable(nil)
	if Enabled() != nil {
		t.Fatal("default should start nil")
	}
	lg := New(Options{Level: LevelInfo})
	Enable(lg)
	if Enabled() != lg {
		t.Fatal("Enabled() != lg")
	}
	Enable(nil)
	if Enabled() != nil {
		t.Fatal("Enable(nil) should clear")
	}
}

func TestSnapshotDuringConcurrentWrites(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			lg.Info("spin", trace.Int("i", int64(i)))
		}
	}()
	for i := 0; i < 50; i++ {
		snap := lg.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
