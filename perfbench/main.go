// Command perfbench is the repository's benchmark: a single-process,
// closed-loop harness that runs one campaign at a time, from one client,
// through the layers' public functions, the way cmd/toposhot assembles them.
//
//	bash perfbench/run.sh --workload census --seed 1 --seconds 20 --trace 0
//
// Workloads are census, tracking and strategies (see README.md). Campaign i
// of a run gets its own network, generated from --seed and i; campaigns
// repeat until --seconds of wall time have passed, and at least the first
// refCampaigns always run. The deterministic metrics (precision, recall,
// probe_txs and the per-layer counts and simulated hours) are means over those
// reference campaigns, so every run of one seed reports them identically.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones, measured with the program's telemetry off. With --trace 1
// the run first repeats the untraced loop (the overhead baseline), then runs
// the loop again with telemetry on and a CPU profile, prints the per-layer
// table and reports the per-layer metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/metrics"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
)

// workDir holds the files a run writes (tracking checkpoints, spans); it is
// under the build directory, relative to the checkout root.
const workDir = ".bench_build/run"

// refCampaigns is how many campaigns every run completes, whatever the time
// budget; the deterministic metrics average over them.
const refCampaigns = 3

// env is what a campaign gets from the harness.
type env struct {
	rec   *recorder
	width int               // worker-pool width (≤ nproc)
	reg   *metrics.Registry // nil when untraced
}

// campaign is one completed campaign's measurements.
type campaign struct {
	setupS, wallS float64
	steps         []float64 // ms per step (batch, tick or TopoShot pair)
	pairs         int       // node pairs resolved in the measured phase
	precision     float64
	recall        float64
	probeTxs      int
	virtualS      float64 // simulated clock at the campaign's end, summed over networks
	digest        string
	checks        int
	failures      []string
	note          string // printed once per run, from the campaign that reports layers
	// layer holds the per-layer values that repeat exactly per seed (counts
	// and their ratios); layerTimes holds host-time samples, reported as
	// their median.
	layer      map[string]float64
	layerTimes map[string][]float64
}

func newCampaign() *campaign {
	return &campaign{layer: map[string]float64{}, layerTimes: map[string][]float64{}}
}

// check records one correctness check.
func (c *campaign) check(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(e *env, seed int64) *campaign
	// after runs once at the end of a run, outside the measured loop, with
	// the last campaign (the tracking restore check).
	after func(e *env, last *campaign)
}

var workloads = []workload{
	{name: "census", run: runCensus},
	{name: "tracking", run: runTracking, after: afterTracking},
	{name: "strategies", run: runStrategies},
}

func main() {
	name := flag.String("workload", "", "census | tracking | strategies")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "wall seconds of campaigns per loop")
	traced := flag.Int("trace", 0, "1 = add the traced loop and report per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	width := runtime.NumCPU()
	if width > 2 {
		width = 2
	}
	runtime.GOMAXPROCS(width)
	runner.SetParallelism(width)

	e := &env{rec: newRecorder(), width: width}
	budget := time.Duration(*seconds * float64(time.Second))
	plain := loop(w, e, *seed, budget)
	res := result{campaigns: plain}
	if *traced == 1 {
		res.runTraced(w, e, *seed, budget)
	}
	if w.after != nil {
		last := plain[len(plain)-1]
		if *traced == 1 {
			last = res.traced[len(res.traced)-1]
		}
		w.after(e, last)
	}
	res.print(*traced == 1, w.name, *seed)
	if *traced == 1 {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
		if err := e.rec.writeJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
	}
}

// loop runs campaigns back to back until budget has passed, and at least
// refCampaigns of them. Campaign i runs on the network of campaignSeed(seed, i).
func loop(w *workload, e *env, seed int64, budget time.Duration) []*campaign {
	start := time.Now()
	var out []*campaign
	for len(out) < refCampaigns || time.Since(start) < budget {
		out = append(out, w.run(e, campaignSeed(seed, len(out))))
	}
	return out
}

// campaignSeed derives campaign i's seed; distinct workload seeds below 10^6
// never share a campaign network.
func campaignSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// runTraced switches the program's telemetry on, the way the CLI's flags
// do, and repeats the loop under a CPU profile.
func (r *result) runTraced(w *workload, e *env, seed int64, budget time.Duration) {
	e.reg = metrics.NewRegistry()
	metrics.Enable(e.reg)
	trace.Enable(trace.New(trace.Options{Level: trace.LevelMeasure}))
	obs.Enable(obs.New(obs.Options{Level: obs.LevelDebug}))
	defer func() {
		metrics.Enable(nil)
		trace.Enable(nil)
		obs.Enable(nil)
	}()

	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		os.Exit(1)
	}
	r.traced = loop(w, e, seed, budget)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)

	var err error
	if r.cpu, r.cpuSamples, err = cpuShares(prof.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	k := float64(len(r.traced))
	r.runtime = map[string]float64{
		"runtime.alloc_mb":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / k,
		"runtime.gc_cycles":   float64(ms1.NumGC-ms0.NumGC) / k,
		"runtime.gc_pause_ms": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / k,
	}
}

// counterDelta returns the registry's counters that moved between two
// snapshots.
func counterDelta(a, b metrics.Snapshot) map[string]float64 {
	d := map[string]float64{}
	for k, v := range b.Counters {
		d[k] = float64(v - a.Counters[k])
	}
	return d
}

// addLayerCounts turns a telemetry counter delta over a measured phase into
// the txpool, ethsim, core and tracker per-layer counts.
func addLayerCounts(c *campaign, d map[string]float64) {
	sum := func(prefix string) float64 {
		s := 0.0
		for k, v := range d {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	c.layer["ethsim.msgs"] = sum("ethsim.msg.")
	c.layer["ethsim.msgs.txs"] = d["ethsim.msg.txs"]
	c.layer["ethsim.msgs.announce"] = d["ethsim.msg.announce"]
	c.layer["ethsim.msgs.request"] = d["ethsim.msg.request"]
	c.layer["txpool.admitted"] = sum("txpool.admitted.")
	c.layer["txpool.evicted"] = d["txpool.evicted"]
	c.layer["txpool.replaced"] = d["txpool.replaced"]
	c.layer["txpool.rejected"] = sum("txpool.rejected.")
	c.layer["txpool.evict_per_admit"] = ratio(d["txpool.evicted"], c.layer["txpool.admitted"])
	c.layer["core.batches"] = d["core.rounds"]
	c.layer["core.setup_fails"] = d["core.edges.setup_failed"]
	c.layer["core.setup_fail_ratio"] = ratio(d["core.edges.setup_failed"], d["core.edges.measured"])
	c.layer["tracker.planned"] = d["tracker.pairs.planned"]
	c.layer["tracker.probed"] = d["tracker.pairs.probed"]
	c.layer["tracker.failed"] = d["tracker.pairs.failed"]
	c.layer["tracker.changed"] = d["tracker.verdict_flips"]
	c.layer["tracker.change_ratio"] = ratio(d["tracker.verdict_flips"], d["tracker.pairs.probed"])
}

// digest is a short hash of an edge set, so runs of one seed can be compared.
func digest(sets ...*core.EdgeSet) string {
	h := sha256.New()
	for _, s := range sets {
		for _, e := range s.Edges() {
			fmt.Fprintf(h, "%d-%d ", e[0], e[1])
		}
		h.Write([]byte{'|'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// result aggregates a run.
type result struct {
	campaigns  []*campaign        // the untraced loop
	traced     []*campaign        // the traced loop (--trace 1)
	cpu        map[string]float64 // CPU share per bucket, percent
	cpuSamples int
	runtime    map[string]float64 // runtime.* totals per traced campaign
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(traced bool, name string, seed int64) {
	// Campaign i of the traced loop runs the same network as campaign i of
	// the untraced one: telemetry must not change what a campaign detects.
	for i, c := range r.traced {
		if i < len(r.campaigns) {
			c.check(c.digest == r.campaigns[i].digest,
				"campaign %d detected edge digest %s with telemetry on, %s with it off",
				i, c.digest, r.campaigns[i].digest)
		}
	}
	attempted, failed := 0, 0
	for _, c := range append(append([]*campaign(nil), r.campaigns...), r.traced...) {
		attempted += c.checks
		failed += len(c.failures)
		for _, f := range c.failures {
			fmt.Printf("FAILED: %s\n", f)
		}
	}
	h := sha256.New()
	for _, c := range r.campaigns[:refCampaigns] {
		h.Write([]byte(c.digest))
	}
	fmt.Printf("perfbench %s seed=%d: %d campaigns untraced, %d traced; edge digest of the first %d: %s\n",
		name, seed, len(r.campaigns), len(r.traced), refCampaigns, hex.EncodeToString(h.Sum(nil))[:16])
	for _, cs := range [][]*campaign{r.campaigns, r.traced} {
		var ws []string
		for _, c := range cs {
			ws = append(ws, fmt.Sprintf("%.3f+%.3f", c.setupS, c.wallS))
		}
		if len(ws) > 0 {
			fmt.Printf("  campaign set-up+measured s: %s\n", strings.Join(ws, " "))
		}
	}
	var m map[string]metric
	if traced {
		fmt.Print(r.traced[0].note)
		m = r.layerMetrics()
		printLayerTable(name, m, r.cpuSamples, len(r.traced))
	} else {
		m = r.endToEnd()
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd reports the user-visible metrics of the untraced loop: times
// over all its campaigns, the deterministic metrics over the reference ones.
func (r *result) endToEnd() map[string]metric {
	cs := r.campaigns
	var setups, rates, steps []float64
	for _, c := range cs {
		setups = append(setups, c.setupS)
		rates = append(rates, float64(c.pairs)/c.wallS)
		steps = append(steps, c.steps...)
	}
	ref := func(f func(c *campaign) float64) float64 {
		s := 0.0
		for _, c := range cs[:refCampaigns] {
			s += f(c)
		}
		return s / refCampaigns
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls(cs)),
		"pairs_per_s": median(rates),
		"step_ms_p50": percentile(steps, 50),
		"step_ms_p90": percentile(steps, 90),
		"peak_rss_mb": peakRSSMB(),
		"precision":   ref(func(c *campaign) float64 { return c.precision }),
		"recall":      ref(func(c *campaign) float64 { return c.recall }),
		"probe_txs":   ref(func(c *campaign) float64 { return float64(c.probeTxs) }),
	}
	out := map[string]metric{}
	for _, d := range endToEndDefs {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// endToEndDefs lists the end-to-end metrics with their units.
var endToEndDefs = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"pairs_per_s", "1/s"},
	{"step_ms_p50", "ms"}, {"step_ms_p90", "ms"}, {"peak_rss_mb", "MiB"},
	{"precision", "ratio"}, {"recall", "ratio"}, {"probe_txs", "count"},
}

func walls(cs []*campaign) []float64 {
	var out []float64
	for _, c := range cs {
		out = append(out, c.wallS)
	}
	return out
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
