package trace

import (
	"bytes"
	"strings"
	"testing"
)

// fuzzSeedTrace renders a small but representative trace — two lanes,
// nested spans, an open span, events with every attribute kind, and a
// dropped-record count — through the real recorder.
func fuzzSeedTrace() []byte {
	clock := 0.0
	tr := New(Options{Level: LevelMeasure, Deterministic: true})
	tr.SetClock(func() float64 { clock++; return clock })
	outer := tr.StartSpan(tsOuter, String("who", "fuzz"), Int("n", 3))
	inner := tr.StartSpan(tsInner, Float("f", 2.5), Bool("ok", true))
	tr.Event(tsTick, Int("i", 1))
	inner.End()
	outer.End()
	lane := tr.Lane("lane-two", func() float64 { clock++; return clock })
	lane.StartSpan(tsSolo) // left open on purpose
	var b bytes.Buffer
	if err := tr.Snapshot().WriteJSONL(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzTraceJSONL drives ReadJSONL with arbitrary input. Properties:
// ReadJSONL never panics, and any input it accepts must survive a
// write→read→write round trip byte-identically (the canonical-form
// property: W(R(x)) is a fixed point of R∘W).
func FuzzTraceJSONL(f *testing.F) {
	f.Add(fuzzSeedTrace())
	f.Add([]byte(`{"kind":"header","v":1,"deterministic":true}`))
	f.Add([]byte(`{"kind":"header","v":1}
{"kind":"lane","lane":0,"name":"main","now":4}
{"kind":"span","lane":0,"name":"s","id":1,"seq":1,"start":1,"end":2,"attrs":[{"k":"a","i":7}]}
{"kind":"event","lane":0,"name":"e","id":2,"seq":2,"start":2,"end":2}`))
	// An event-log line: a levelled event carrying the full 8 attributes.
	f.Add([]byte(`{"kind":"header","v":1,"deterministic":true}
{"kind":"lane","lane":1,"name":"census","now":12.5}
{"kind":"event","lane":1,"name":"batch-done","id":4,"seq":4,"start":12.5,"end":12.5,"level":"debug","attrs":[{"k":"batch","i":3},{"k":"pairs","i":40},{"k":"detected","i":9},{"k":"ok","b":true},{"k":"rate","f":0.225},{"k":"phase","s":"census"},{"k":"span","i":2},{"k":"err","s":""}]}`))
	f.Add([]byte(`{"kind":"span"`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1 strings.Builder
		if err := tr.WriteJSONL(&w1); err != nil {
			t.Fatalf("write accepted trace: %v", err)
		}
		tr2, err := ReadJSONL(strings.NewReader(w1.String()))
		if err != nil {
			t.Fatalf("re-read own output: %v\n%s", err, w1.String())
		}
		var w2 strings.Builder
		if err := tr2.WriteJSONL(&w2); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if w1.String() != w2.String() {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", w1.String(), w2.String())
		}
	})
}
