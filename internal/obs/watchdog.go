package obs

import (
	"sync"

	"toposhot/internal/trace"
)

// Watchdog consumes the live event stream and the ledger record stream and
// promotes operational anomalies to first-class warn events on its own
// scope: phases that stop emitting (stall), campaigns that blow through
// their transaction budget (overrun), and probe streams whose detection
// rate collapses below a floor (recall-proxy anomaly — on a graph whose
// density the operator roughly knows, a near-zero detect rate over a long
// window usually means the probe machinery, not the graph, went wrong).
//
// All judgements use the timestamps the events themselves carry (virtual
// seconds under the engine, wall seconds under toposhotd's clock) — the
// watchdog itself never reads a clock, keeping it legal inside the
// nodeterminism lint scope.

// WatchdogConfig tunes the anomaly detectors; zero values disable each.
type WatchdogConfig struct {
	// StallAfter flags a scope once another scope's events show its clock
	// advanced this many seconds past the quiet scope's last event.
	StallAfter float64
	// BudgetTxs flags the campaign once cumulative ledger transactions
	// (pending + futures) exceed this count. Fires once.
	BudgetTxs int
	// RecallWindow and MinDetectRate flag the probe stream when the detect
	// rate over the last RecallWindow completed pair probes drops below
	// MinDetectRate. Fires once.
	RecallWindow  int
	MinDetectRate float64
}

// Watchdog state. One watchdog per campaign; attach with Watch/WatchLedger.
type Watchdog struct {
	mu  sync.Mutex
	cfg WatchdogConfig
	lg  *Logger // the watchdog's own scope; nil-safe
	own int     // own scope id, excluded from stall accounting

	lastSeen     []float64 // last event time per scope id
	seen         []bool
	stallFlagged []bool

	spentTxs    int
	budgetFired bool

	window      []bool // detection outcomes of the last RecallWindow pairs
	wi, wn      int
	recallFired bool
}

// Messages the watchdog emits.
const (
	MsgPhaseStalled  = "phase-stalled"
	MsgBudgetOverrun = "budget-overrun"
	MsgRecallAnomaly = "recall-anomaly"
)

// NewWatchdog builds a watchdog reporting on a fresh "watchdog" scope of
// lg's sink. lg may be nil (anomalies are then detected but unreported —
// useful only in tests).
func NewWatchdog(cfg WatchdogConfig, lg *Logger) *Watchdog {
	w := &Watchdog{cfg: cfg, own: -1}
	if cfg.RecallWindow > 0 {
		w.window = make([]bool, cfg.RecallWindow)
	}
	if lg != nil {
		w.lg = lg.Scope("watchdog", nil)
		w.own = w.lg.tr.LaneID()
		// The watchdog's scope clock follows the stream it judges: stamp
		// its events with the latest time seen on any watched scope.
		w.lg.SetClock(w.lastTime)
	}
	return w
}

// Watch taps the logger's live stream; returns the tap's cancel.
func (w *Watchdog) Watch(lg *Logger) (cancel func()) {
	return lg.Tap(w.onEvent)
}

// WatchLedger observes a ledger's record stream.
func (w *Watchdog) WatchLedger(l *Ledger) {
	l.SetObserver(w.onRecord)
}

// lastTime returns the max event time seen across watched scopes.
func (w *Watchdog) lastTime() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var max float64
	for i, t := range w.lastSeen {
		if w.seen[i] && t > max {
			max = t
		}
	}
	return max
}

func (w *Watchdog) grow(id int) {
	for len(w.lastSeen) <= id {
		w.lastSeen = append(w.lastSeen, 0)
		w.seen = append(w.seen, false)
		w.stallFlagged = append(w.stallFlagged, false)
	}
}

// onEvent advances per-scope liveness and checks the stall detector: any
// scope whose last event is StallAfter behind the arriving event's clock is
// flagged once (and re-armed when it speaks again).
func (w *Watchdog) onEvent(scope int, r trace.Record) {
	if scope == w.own {
		return
	}
	type stall struct {
		id   int
		idle float64
	}
	var stalls []stall
	w.mu.Lock()
	w.grow(scope)
	w.lastSeen[scope] = r.Start
	w.seen[scope] = true
	w.stallFlagged[scope] = false
	if w.cfg.StallAfter > 0 {
		for id := range w.lastSeen {
			if id == scope || id == w.own || !w.seen[id] || w.stallFlagged[id] {
				continue
			}
			if idle := r.Start - w.lastSeen[id]; idle > w.cfg.StallAfter {
				w.stallFlagged[id] = true
				stalls = append(stalls, stall{id: id, idle: idle})
			}
		}
	}
	w.mu.Unlock()
	for _, s := range stalls {
		w.lg.Warn(MsgPhaseStalled,
			trace.String("stalled_scope", w.lg.ScopeName(s.id)),
			trace.Int("scope_id", int64(s.id)),
			trace.Float("idle_s", s.idle))
	}
}

// onRecord advances the budget and recall detectors.
func (w *Watchdog) onRecord(r ProbeRecord) {
	var overrun, anomaly bool
	var spent, detected int
	w.mu.Lock()
	w.spentTxs += r.Pending + r.Futures
	if w.cfg.BudgetTxs > 0 && !w.budgetFired && w.spentTxs > w.cfg.BudgetTxs {
		w.budgetFired = true
		overrun = true
		spent = w.spentTxs
	}
	if w.window != nil && r.Kind == KindPair && r.Verdict != VerdictSetupFailed {
		w.window[w.wi] = r.Detected
		w.wi = (w.wi + 1) % len(w.window)
		if w.wn < len(w.window) {
			w.wn++
		}
		if w.wn == len(w.window) && !w.recallFired {
			for _, d := range w.window {
				if d {
					detected++
				}
			}
			if rate := float64(detected) / float64(w.wn); rate < w.cfg.MinDetectRate {
				w.recallFired = true
				anomaly = true
			}
		}
	}
	w.mu.Unlock()
	if overrun {
		w.lg.Warn(MsgBudgetOverrun,
			trace.Int("budget_txs", int64(w.cfg.BudgetTxs)),
			trace.Int("spent_txs", int64(spent)))
	}
	if anomaly {
		w.lg.Warn(MsgRecallAnomaly,
			trace.Int("window", int64(len(w.window))),
			trace.Int("detected", int64(detected)),
			trace.Float("min_rate", w.cfg.MinDetectRate))
	}
}
