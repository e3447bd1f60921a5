package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"toposhot/internal/types"
)

// The metric lists the program reports must be the ones BENCHMARK.json
// declares, with the same units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i, d := range got {
			if d.name != want[i].Name || d.unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, want[i].Name, want[i].Unit)
			}
		}
	}
	compare("end_to_end", endToEndDefs, spec.EndToEnd)
	compare("per_layer", perLayer(), spec.PerLayer)
}

var (
	sink      types.Hash
	raceBuild bool // set by race_test.go
)

// A real CPU profile of a loop hashing transactions charges its samples to
// the types layer, although the hashing itself runs in crypto frames.
func TestCPUSharesChargeInnermostLayer(t *testing.T) {
	if raceBuild {
		t.Skip("race builds profile without Go stacks")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		for i := uint64(0); i < 1000; i++ {
			sink = types.NewTransaction(types.AddressFromUint64(i), types.AddressFromUint64(i+1), i, 1, 0).Hash()
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("no profile samples")
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %.2f%%, want 100%%", total)
	}
	if shares["types"] < 50 {
		t.Errorf("types has %.1f%% of %d samples, want most of them: %v", shares["types"], n, shares)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
}

// The strategies replicas record spans from several workers at once.
func TestRecorderConcurrentSpans(t *testing.T) {
	r := newRecorder()
	root := r.start("root", 0)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				r.time("call", root, func() {})
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	r.end(root)
	if len(r.spans) != 401 {
		t.Fatalf("recorded %d spans, want 401", len(r.spans))
	}
	for i, s := range r.spans {
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
}
