// Package fixture exercises the trace-nilsafe and trace-spanname analyzers:
// recorders are nil-safe (no guards, no dereferences) and span, event and
// event-log names must be compile-time constants.
package fixture

import (
	"fmt"

	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

const spanRow = "row"

// guarded wraps pure recording in the nil guard the nil-safe methods exist
// to delete.
func guarded(tr *trace.Tracer) {
	if tr != nil {
		sp := tr.StartSpan(spanRow)
		defer sp.End()
		tr.Event("tick")
	}
}

// deref copies through the pointer; a nil recorder panics here.
func deref(tr *trace.Tracer) trace.Tracer {
	return *tr
}

// dynamicName builds a span name at runtime, defeating constant-name
// aggregation.
func dynamicName(tr *trace.Tracer, i int) {
	sp := tr.StartSpan(fmt.Sprintf("row-%d", i))
	tr.Event("msg" + fmt.Sprint(i))
	sp.End()
}

// dynamicLog builds event-log names at runtime: obs messages become trace
// record names, so the same rule covers them and Tracer.Log.
func dynamicLog(lg *obs.Logger, cli *obs.CLI, tr *trace.Tracer, i int) {
	lg.Info(fmt.Sprint("msg-", i))
	cli.Fatal(1, fmt.Sprint(i))
	tr.Log(trace.SeverityWarn, fmt.Sprint(i))
}

// forward passes its parameter to Event, but forward is no checked recorder:
// nothing checks its callers, so the forwarded name is flagged here.
func forward(tr *trace.Tracer, name string) {
	tr.Event(name)
}

// sanctioned shapes: unconditional recording with constant names, nil
// guards around non-recording work (wiring), and nil checks that skip
// construction.
func sanctioned(tr *trace.Tracer, wire func(*trace.Tracer)) {
	sp := tr.StartSpan(spanRow, trace.Int("i", 1))
	tr.Event("literal-is-constant")
	tr.Log(trace.SeverityInfo, spanRow)
	sp.End()
	if tr != nil {
		wire(tr)
	}
	if tr == nil {
		return
	}
}
