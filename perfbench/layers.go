package main

import (
	"fmt"
	"sort"
	"strings"
)

// methods are the strategies workload's replicas, in canonical order.
var methods = []string{"toposhot", "dethna", "txprobe", "ethna"}

// cpuLayers are the packages with their own cpu_share metric; samples in any
// other toposhot/internal package count as "other".
var cpuLayers = []string{
	"sim", "ethsim", "txpool", "types", "core", "netgen", "strategy", "tracker",
	"graph", "rlp", "runner", "experiments", "obs", "trace", "metrics",
}

type metricDef struct{ name, unit string }

// perLayer lists every per-layer metric, in table order. Layers a workload
// does not use report 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"netgen.grow_ms", "ms"}, {"netgen.instantiate_ms", "ms"},
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.virtual_h", "h"},
		{"ethsim.msgs", "count"}, {"ethsim.msgs.txs", "count"},
		{"ethsim.msgs.announce", "count"}, {"ethsim.msgs.request", "count"},
		{"ethsim.prefill_ms", "ms"},
		{"ethsim.checkpoint_ms_p50", "ms"}, {"ethsim.checkpoint_kb", "KiB"}, {"ethsim.restore_ms", "ms"},
		{"txpool.admitted", "count"}, {"txpool.evicted", "count"}, {"txpool.replaced", "count"},
		{"txpool.rejected", "count"}, {"txpool.evict_per_admit", "ratio"},
		{"core.preprocess_ms", "ms"}, {"core.batches", "count"},
		{"core.setup_fails", "count"}, {"core.setup_fail_ratio", "ratio"},
	}
	for _, m := range methods {
		p := "strategy." + m
		defs = append(defs,
			metricDef{p + ".campaign_s", "s"}, metricDef{p + ".prepare_ms", "ms"},
			metricDef{p + ".pair_ms_p50", "ms"}, metricDef{p + ".probe_txs", "count"},
			metricDef{p + ".recall", "ratio"})
	}
	defs = append(defs,
		metricDef{"tracker.planned", "count"}, metricDef{"tracker.probed", "count"},
		metricDef{"tracker.failed", "count"}, metricDef{"tracker.changed", "count"},
		metricDef{"tracker.change_ratio", "ratio"},
		metricDef{"runner.busy_ratio", "ratio"},
		metricDef{"telemetry.overhead_pct", "%"},
		metricDef{"runtime.alloc_mb", "MiB"}, metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "%"})
	}
	return append(defs,
		metricDef{"other.cpu_share", "%"}, metricDef{"perfbench.cpu_share", "%"},
		metricDef{"runtime.cpu_share", "%"}, metricDef{"runtime.gc_share", "%"})
}

// layerMetrics assembles the per-layer metrics of the traced loop: counts
// as means over its reference campaigns (they repeat exactly per seed), times
// as medians over all its campaigns, CPU shares from its profile.
func (r *result) layerMetrics() map[string]metric {
	vals := map[string]float64{}
	for _, c := range r.traced[:refCampaigns] {
		for k, v := range c.layer {
			vals[k] += v / refCampaigns
		}
		vals["sim.virtual_h"] += c.virtualS / 3600 / refCampaigns
	}
	for k, v := range r.runtime {
		vals[k] = v
	}
	pooled := map[string][]float64{}
	for _, c := range r.traced {
		for k, xs := range c.layerTimes {
			pooled[k] = append(pooled[k], xs...)
		}
	}
	for k, xs := range pooled {
		vals[k] = median(xs)
	}
	var events, wall float64
	for _, c := range r.traced {
		events += c.layer["sim.events"]
		wall += c.wallS
	}
	vals["sim.events_per_s"] = ratio(events, wall)
	// Campaign i runs the same network in both loops, so the overhead
	// compares matched campaigns.
	var on, off float64
	for i := 0; i < len(r.traced) && i < len(r.campaigns); i++ {
		on += r.traced[i].wallS
		off += r.campaigns[i].wallS
	}
	vals["telemetry.overhead_pct"] = 100 * (on/off - 1)

	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	for b, share := range r.cpu {
		switch {
		case b == bucketGC:
			vals["runtime.gc_share"] += share
		case b == bucketRuntime || b == bucketHarness || known[b]:
			vals[b+".cpu_share"] += share
		default:
			vals["other.cpu_share"] += share
		}
	}

	out := map[string]metric{}
	for _, d := range perLayer() {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// printLayerTable prints the per-layer table, grouped by layer, with the CPU
// shares sorted by size and their sum.
func printLayerTable(workload string, m map[string]metric, samples, campaigns int) {
	fmt.Printf("per-layer table: %s (traced loop, %d campaigns; counts per campaign)\n", workload, campaigns)
	var shares []metricDef
	for _, d := range perLayer() {
		if strings.HasSuffix(d.name, "cpu_share") || d.name == "runtime.gc_share" {
			shares = append(shares, d)
			continue
		}
		fmt.Printf("  %-28s %14.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
	sort.SliceStable(shares, func(i, j int) bool { return m[shares[i].name].Value > m[shares[j].name].Value })
	total := 0.0
	fmt.Printf("CPU by layer (%d profile samples, innermost toposhot/internal frame):\n", samples)
	for _, d := range shares {
		total += m[d.name].Value
		fmt.Printf("  %-28s %7.2f %%\n", d.name, m[d.name].Value)
	}
	fmt.Printf("  %-28s %7.2f %%\n", "sum", total)
}
