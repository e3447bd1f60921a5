package obs

import (
	"testing"

	"toposhot/internal/trace"
)

// watchdogEvents returns the records on the watchdog's own scope.
func watchdogEvents(t *testing.T, lg *Logger) []trace.Record {
	t.Helper()
	for _, sc := range lg.Snapshot().Lanes {
		if sc.Name == "watchdog" {
			return sc.Records
		}
	}
	return nil
}

func TestWatchdogStall(t *testing.T) {
	lg := New(Options{Level: LevelDebug})
	w := NewWatchdog(WatchdogConfig{StallAfter: 100}, lg)
	cancel := w.Watch(lg)
	defer cancel()
	slow := lg.Scope("slow-phase", nil)
	fast := lg.Scope("fast-phase", nil)
	tick := 0.0
	for _, sc := range []*Logger{slow, fast} {
		sc.SetClock(func() float64 { return tick })
	}
	tick = 1
	slow.Info("working")
	fast.Info("working")
	// fast keeps emitting; slow goes quiet for > StallAfter.
	tick = 50
	fast.Info("working")
	tick = 102
	fast.Info("working")
	evs := watchdogEvents(t, lg)
	if len(evs) != 1 || evs[0].Name != MsgPhaseStalled {
		t.Fatalf("watchdog events = %+v, want one %s", evs, MsgPhaseStalled)
	}
	if f, _ := evs[0].Attr("stalled_scope"); f.Value() != "slow-phase" {
		t.Fatalf("stalled scope = %v", f.Value())
	}
	// The stalled scope speaking re-arms; going quiet again re-fires.
	tick = 103
	slow.Info("back")
	tick = 205
	fast.Info("working")
	if evs := watchdogEvents(t, lg); len(evs) != 2 {
		t.Fatalf("re-armed stall should fire again, got %+v", evs)
	}
	// Watchdog events carry the latest stream time, not a wall clock.
	if evs := watchdogEvents(t, lg); evs[1].Start < 200 {
		t.Fatalf("watchdog clock = %g, want stream time", evs[1].Start)
	}
}

func TestWatchdogBudgetOverrunFiresOnce(t *testing.T) {
	lg := New(Options{Level: LevelDebug})
	w := NewWatchdog(WatchdogConfig{BudgetTxs: 10}, lg)
	led := NewLedger()
	w.WatchLedger(led)
	for i := 0; i < 5; i++ {
		led.Record(ProbeRecord{Kind: KindPair, Pending: 3, Futures: 1})
	}
	evs := watchdogEvents(t, lg)
	if len(evs) != 1 || evs[0].Name != MsgBudgetOverrun {
		t.Fatalf("events = %+v, want exactly one %s", evs, MsgBudgetOverrun)
	}
	if f, _ := evs[0].Attr("spent_txs"); f.Value() != int64(12) {
		t.Fatalf("spent = %v, want 12 (first crossing)", f.Value())
	}
}

func TestWatchdogRecallAnomaly(t *testing.T) {
	lg := New(Options{Level: LevelDebug})
	w := NewWatchdog(WatchdogConfig{RecallWindow: 4, MinDetectRate: 0.5}, lg)
	led := NewLedger()
	w.WatchLedger(led)
	// Healthy prefix: all detected.
	for i := 0; i < 4; i++ {
		led.Record(ProbeRecord{Kind: KindPair, Verdict: "detected", Detected: true})
	}
	if evs := watchdogEvents(t, lg); len(evs) != 0 {
		t.Fatalf("healthy window fired: %+v", evs)
	}
	// Setup failures and non-pair records never enter the window.
	led.Record(ProbeRecord{Kind: KindPair, Verdict: VerdictSetupFailed})
	led.Record(ProbeRecord{Kind: KindRound, Futures: 9})
	// Collapse: window goes 1/4 detected < 0.5.
	for i := 0; i < 3; i++ {
		led.Record(ProbeRecord{Kind: KindPair, Verdict: "undetected"})
	}
	evs := watchdogEvents(t, lg)
	if len(evs) != 1 || evs[0].Name != MsgRecallAnomaly {
		t.Fatalf("events = %+v, want one %s", evs, MsgRecallAnomaly)
	}
	if f, _ := evs[0].Attr("detected"); f.Value() != int64(1) {
		t.Fatalf("detected = %v, want 1", f.Value())
	}
	// Fires once even as the rate stays low.
	for i := 0; i < 8; i++ {
		led.Record(ProbeRecord{Kind: KindPair, Verdict: "undetected"})
	}
	if evs := watchdogEvents(t, lg); len(evs) != 1 {
		t.Fatalf("anomaly should fire once, got %+v", evs)
	}
}

func TestWatchdogNilLogger(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{StallAfter: 1, BudgetTxs: 1, RecallWindow: 1, MinDetectRate: 1}, nil)
	led := NewLedger()
	w.WatchLedger(led)
	led.Record(ProbeRecord{Kind: KindPair, Pending: 5})
	w.onEvent(2, trace.Record{Start: 100})
	w.onEvent(3, trace.Record{Start: 300})
}
