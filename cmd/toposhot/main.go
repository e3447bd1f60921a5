// Command toposhot measures the active topology of a simulated Ethereum
// network and emits the detected edge list.
//
// Usage:
//
//	toposhot -n 150 -k 20 -seed 7            # grow+measure a testnet-like net
//	toposhot -preset ropsten -out edges.txt  # full Ropsten-sized campaign
//
// The output format is one "u v" pair per line (vertex ids), suitable for
// cmd/graphstats.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
	"toposhot/internal/metrics"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/profile"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

func main() {
	n := flag.Int("n", 120, "nodes in the generated network")
	k := flag.Int("k", 20, "parallel schedule group size K")
	seed := flag.Int64("seed", 42, "simulation seed")
	preset := flag.String("preset", "", "network preset: ropsten|rinkeby|goerli|mainnet (overrides -n)")
	lanes := flag.Int("lanes", 0, "engine event-lane count (0 = serial heap); lane count changes wall-clock only, never results")
	regions := flag.Int("regions", 0, "shard the census into this many regions, each censused in its own engine (mainnet-scale mode; only intra-region links are measurable, reported honestly)")
	checkpoint := flag.String("checkpoint", "", "write a resumable campaign checkpoint to this file at batch boundaries")
	checkpointEvery := flag.Int("checkpoint-every", 25, "batches between checkpoint writes under -checkpoint")
	resumeFrom := flag.String("resume", "", "resume a campaign from a checkpoint file written by -checkpoint (skips network build and pre-processing)")
	strat := flag.String("strategy", "toposhot", "measurement method: toposhot|dethna|txprobe|ethna (non-toposhot methods probe all eligible pairs)")
	track := flag.Bool("track", false, "after the seeding census, follow the churning network with budgeted delta campaigns instead of re-censusing")
	trackTicks := flag.Int("track-ticks", 12, "delta campaigns to run under -track")
	trackBudget := flag.Int("track-budget", 72, "pairs re-probed per delta campaign under -track")
	trackChurn := flag.Float64("track-churn", 20, "mean virtual seconds between peer-churn events under -track")
	out := flag.String("out", "", "output file (default stdout)")
	uniform := flag.Bool("uniform", false, "all-default nodes (no heterogeneity)")
	parallel := flag.Int("parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	withMetrics := flag.Bool("metrics", false, "print periodic progress lines and a final metrics snapshot to stderr")
	metricsEvery := flag.Duration("metrics-interval", 10*time.Second, "progress line interval under -metrics")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceOut := flag.String("trace", "", "write a timeline trace to this file (.jsonl = JSONL, else Chrome/Perfetto JSON)")
	traceLevel := flag.String("trace-level", "measure", "trace verbosity with -trace: off|measure|engine")
	traceDet := flag.Bool("trace-deterministic", false, "suppress wall-clock fields so same-seed runs produce byte-identical traces")
	logLevel := flag.String("log-level", "info", "structured event-log verbosity: debug|info|warn|error|off")
	logFormat := flag.String("log-format", "text", "live log line format on stderr: text|jsonl")
	logOut := flag.String("log", "", "write the deterministic event-log snapshot (JSONL) to this file on exit")
	events := flag.String("events", "", "serve the live campaign dashboard (/, /events, /log, /ledger, /metrics, /trace/snapshot, /progress) on this address while the run is active")
	flag.Parse()

	cli := obs.OpenCLI(*logLevel, *logFormat, *logOut)
	lg := cli.Logger
	defer func() {
		if err := cli.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	tracer, flushTrace, err := setupTrace(*traceOut, *traceLevel, *traceDet)
	if err != nil {
		cli.Fatal(2, "trace-setup-failed", obs.Err(err))
	}

	prof, err := profile.StartRuntime(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fatal(1, "profile-setup-failed", obs.Err(err))
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			lg.Error("profile-write-failed", obs.Err(err))
		}
	}()

	// One campaign is one serial engine, so this knob matters only for the
	// pool-backed helpers underneath (and keeps the flag uniform with
	// cmd/experiments and the benchmark harness).
	runner.SetParallelism(*parallel)

	var reg *metrics.Registry
	if *withMetrics || *events != "" {
		reg = metrics.NewRegistry()
		metrics.Enable(reg) // the network, pools, and measurer self-wire
	}
	if *withMetrics {
		progress := metrics.StartProgress(reg, os.Stderr, *metricsEvery)
		defer progress.Stop()
		defer func() {
			lg.Info("final-metrics-snapshot")
			_ = reg.WriteJSON(os.Stderr)
		}()
	}

	// The live dashboard serves the campaign's observability surfaces for the
	// duration of the run; led is the probe cost-attribution ledger every mode
	// below feeds.
	led := obs.NewLedger()
	if *events != "" {
		dash := &obs.Dash{Logger: lg, Ledger: led, Metrics: reg, Tracer: tracer}
		go func() {
			if err := http.ListenAndServe(*events, dash.Handler()); err != nil {
				lg.Error("dashboard-failed", obs.Err(err))
			}
		}()
		lg.Info("dashboard-listening", trace.String("addr", *events))
	}

	grow := netgen.RopstenConfig.WithSeed(*seed).WithN(*n)
	switch *preset {
	case "ropsten":
		grow = netgen.RopstenConfig.WithSeed(*seed)
	case "rinkeby":
		grow = netgen.RinkebyConfig.WithSeed(*seed)
	case "goerli":
		grow = netgen.GoerliConfig.WithSeed(*seed)
	case "mainnet":
		grow = netgen.MainnetConfig.WithSeed(*seed)
	case "":
	default:
		cli.Fatal(2, "unknown-preset", trace.String("preset", *preset))
	}
	// An explicit -n rescales a preset (downsized smoke runs keep the
	// preset's degree/leaf/monitor shape, like the bench harness).
	if *preset != "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				grow = grow.WithN(*n)
			}
		})
	}
	het := netgen.DefaultHeterogeneity()
	if *uniform {
		het = netgen.Uniform()
	}

	// Region-sharded mode: one independent engine per region, runner-wide
	// parallel, honest intra-region coverage accounting. Per-region results
	// live in separate worlds, so monolithic campaign checkpointing does not
	// apply here.
	if *regions > 0 {
		if *strat != string(strategy.MethodTopoShot) || *checkpoint != "" || *resumeFrom != "" {
			cli.Fatal(2, "bad-flags",
				trace.String("why", "-regions supports only the toposhot strategy and no -checkpoint/-resume"))
		}
		cfg := experiments.ScaleCensusConfig{
			Name: *preset, Grow: grow, Het: het, Seed: *seed,
			Regions: *regions, Lanes: *lanes,
			PoolScale: 0.1, GroupK: *k, EdgeBudget: 144, Prefill: 300,
		}
		if cfg.Name == "" {
			cfg.Name = "custom"
		}
		sc, err := experiments.RunScaleCensus(cfg)
		if err != nil {
			cli.Fatal(1, "census-failed", obs.Err(err))
		}
		fmt.Fprint(os.Stderr, experiments.FormatScaleCensus(sc))
		if err := flushTrace(); err != nil {
			cli.Fatal(1, "trace-write-failed", obs.Err(err))
		}
		bw, closeOut := openOutput(cli, *out)
		defer closeOut()
		for _, e := range sc.Measured.Edges() {
			fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
		}
		return
	}

	// Tracking mode: one seeding census, then per-tick delta campaigns over
	// the churning network. Checkpoints carry the engine blob (churn registry
	// included) plus the tracker snapshot, so -resume continues mid-campaign.
	if *track {
		if *strat != string(strategy.MethodTopoShot) {
			cli.Fatal(2, "bad-flags", trace.String("why", "-track supports only the toposhot strategy"))
		}
		runTracking(trackingFlags{
			grow: grow, het: het, preset: *preset, seed: *seed, k: *k, lanes: *lanes,
			ticks: *trackTicks, budget: *trackBudget, churn: *trackChurn,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery, resumeFrom: *resumeFrom,
			out: *out, flushTrace: flushTrace, cli: cli, ledger: led,
		})
		return
	}

	// Monolithic mode: one engine hosts the whole network. Either build it
	// fresh or restore world + campaign position from a checkpoint file.
	var (
		net     *ethsim.Network
		super   *ethsim.Supernode
		m       *core.Measurer
		targets []types.NodeID
		back    map[types.NodeID]int
		resume  *core.CampaignState
	)
	params := core.DefaultParams()
	params.Z = 512
	if *resumeFrom != "" {
		blob, meta, err := readCheckpoint(*resumeFrom)
		if err != nil {
			cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		if meta.Campaign == nil {
			cli.Fatal(2, "bad-flags", trace.String("file", *resumeFrom),
				trace.String("why", "a tracking checkpoint; resume it with -track"))
		}
		net, err = ethsim.RestoreNetworkLanes(blob, *lanes)
		if err != nil {
			cli.Fatal(1, "restore-failed", trace.String("file", *resumeFrom), obs.Err(err))
		}
		supers := net.Supernodes()
		if meta.Super < 0 || meta.Super >= len(supers) {
			cli.Fatal(1, "restore-failed", trace.String("file", *resumeFrom),
				trace.Int("super", int64(meta.Super)), trace.Int("have", int64(len(supers))),
				trace.String("why", "supernode index out of range"))
		}
		if tracer != nil {
			net.SetTracer(tracer)
			tracer.SetClock(net.Now)
		}
		super = supers[meta.Super]
		m = core.NewMeasurer(net, super, params)
		*seed, *k = meta.Seed, meta.K
		targets, resume = meta.Targets, meta.Campaign
		back = make(map[types.NodeID]int, len(meta.Back))
		for _, p := range meta.Back {
			back[p.ID] = p.V
		}
		lg.Info("campaign-resumed", trace.String("file", *resumeFrom),
			trace.Int("nodes", int64(len(net.Nodes()))), trace.Float("virtual_s", net.Now()),
			trace.Int("batches_done", int64(resume.BatchesDone)),
			trace.Int("edges", int64(len(resume.Detected))))
	} else {
		g := netgen.Grow(grow)
		netCfg := ethsim.DefaultConfig(*seed)
		netCfg.LatencyTail = 0.05
		netCfg.LatencyMax = 1.0
		netCfg.Lanes = *lanes
		net = ethsim.NewNetwork(netCfg)
		het.Expiry = 75
		inst := netgen.InstantiateScaled(net, g, het, *seed, 0.1)
		super = ethsim.NewSupernode(net)
		super.ConnectAll()
		super.SetEstimatorPolicy(txpool.Geth.WithCapacity(512).WithExpiry(75))
		net.StartJanitor(30)

		w := ethsim.NewWorkload(net, 0.2, types.Gwei/10, 2*types.Gwei)
		w.Prefill(300, 5)
		w.Start(0)
		m = core.NewMeasurer(net, super, params)

		lg.Info("network-built", trace.Int("nodes", int64(g.NumNodes())),
			trace.Int("edges", int64(g.NumEdges())))
		pre := m.Preprocess(inst.IDs)
		targets = pre.EligibleNodes(inst.IDs)
		back = inst.Back
	}
	truth := core.EdgeSetOf(net.Edges())

	// Every probe the campaign sends lands in the dashboard's attribution
	// ledger under one census phase.
	m.SetObs(m.Obs(), led)
	m.SetPhase("census")

	var detected *core.EdgeSet
	if *strat == string(strategy.MethodTopoShot) {
		var onBatch func(*core.CampaignState) error
		if *checkpoint != "" {
			every := *checkpointEvery
			if every < 1 {
				every = 1
			}
			meta := &campaignMeta{Seed: *seed, K: *k, EdgeBudget: 144, Targets: targets, Back: backPairs(back)}
			onBatch = func(st *core.CampaignState) error {
				if st.BatchesDone%every != 0 {
					return nil
				}
				blob, err := net.Checkpoint()
				if err != nil {
					return err
				}
				meta.Campaign = st
				return writeCheckpoint(*checkpoint, blob, meta)
			}
		}
		lg.Info("census-started", trace.Int("eligible", int64(len(targets))), trace.Int("k", int64(*k)))
		res, err := m.MeasureNetworkResume(targets, *k, 144, resume, onBatch)
		if err != nil {
			cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = res.Detected
		eligible := map[types.NodeID]bool{}
		for _, id := range targets {
			eligible[id] = true
		}
		sc := core.ScoreAgainst(detected, truth, func(id types.NodeID) bool { return eligible[id] })
		lg.Info("census-scored", trace.Float("virtual_h", res.Duration/3600),
			trace.Int("calls", int64(res.Calls)), trace.String("score", sc.String()),
			trace.Float("fee_eth", core.Ether(m.Ledger.WorstCaseWei())))
	} else if *resumeFrom != "" || *checkpoint != "" {
		cli.Fatal(2, "bad-flags", trace.String("why", "-checkpoint/-resume support only the toposhot strategy"))
	} else {
		s, err := strategy.NewMethod(strategy.Method(*strat), net, super, strategy.Config{TopoShot: params})
		if err != nil {
			cli.Fatal(2, "bad-flags", obs.Err(err))
		}
		var pairs [][2]types.NodeID
		for i := range targets {
			for j := i + 1; j < len(targets); j++ {
				pairs = append(pairs, [2]types.NodeID{targets[i], targets[j]})
			}
		}
		lg.Info("pairs-planned", trace.Int("pairs", int64(len(pairs))),
			trace.Int("eligible", int64(len(targets))), trace.String("method", s.Name()))
		out, err := strategy.RunPairs(tracer, lg, net, s, pairs)
		if err != nil {
			cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = out.Claimed
		lg.Info("campaign-scored", trace.Float("virtual_h", out.VirtualSeconds/3600),
			trace.String("score", out.Score(truth).String()),
			trace.Int("probe_txs", int64(out.LedgerCost().Total())))
	}
	if err := flushTrace(); err != nil {
		cli.Fatal(1, "trace-write-failed", obs.Err(err))
	}

	bw, closeOut := openOutput(cli, *out)
	defer closeOut()
	for _, e := range detected.Edges() {
		va, okA := back[e[0]]
		vb, okB := back[e[1]]
		if okA && okB {
			fmt.Fprintf(bw, "%d %d\n", va, vb)
		}
	}
}

// openOutput returns a buffered writer on the -out file (or stdout) and the
// function that flushes and closes it.
func openOutput(cli *obs.CLI, path string) (*bufio.Writer, func()) {
	dst := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			cli.Fatal(1, "output-create-failed", trace.String("file", path), obs.Err(err))
		}
		dst = f
	}
	bw := bufio.NewWriter(dst)
	return bw, func() {
		bw.Flush()
		if dst != os.Stdout {
			dst.Close()
		}
	}
}

// setupTrace creates and enables the process-default tracer per the -trace
// flags and returns a flush function that snapshots and writes the trace
// file. With tracing off both returns are no-ops.
func setupTrace(out, level string, deterministic bool) (*trace.Tracer, func() error, error) {
	if out == "" {
		return nil, func() error { return nil }, nil
	}
	lv, err := trace.ParseLevel(level)
	if err != nil {
		return nil, nil, err
	}
	tr := trace.New(trace.Options{Level: lv, Deterministic: deterministic})
	if tr == nil {
		return nil, func() error { return nil }, nil
	}
	trace.Enable(tr) // networks and measurers self-wire, like metrics
	return tr, func() error { return tr.Snapshot().WriteFile(out) }, nil
}
