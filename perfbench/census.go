package main

import (
	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Census size: a Ropsten-shaped network censused with the two-round parallel
// schedule, as `toposhot -n censusN -k censusK` runs it.
const (
	censusN          = 60
	censusK          = 15
	censusEdgeBudget = 144
)

// runCensus is one monolithic TopoShot census. Set-up is the network build,
// prefill and pre-processing; the measured phase is MeasureNetworkResume,
// one step per batch.
func runCensus(e *env, seed int64) *campaign {
	c := newCampaign()
	rec := e.rec
	root := rec.start("census", 0)
	defer rec.end(root)

	setup := rec.start("setup", root)
	grow := netgen.RopstenConfig.WithSeed(seed).WithN(censusN)
	var g *graph.Graph
	c.layerTimes["netgen.grow_ms"] = []float64{rec.time("netgen.Grow", setup, func() { g = netgen.Grow(grow) }).ms()}
	netCfg := ethsim.DefaultConfig(seed)
	netCfg.LatencyTail = 0.05
	netCfg.LatencyMax = 1.0
	net := ethsim.NewNetwork(netCfg)
	het := netgen.DefaultHeterogeneity()
	het.Expiry = 75
	var inst *netgen.Instantiated
	c.layerTimes["netgen.instantiate_ms"] = []float64{rec.time("netgen.InstantiateScaled", setup, func() {
		inst = netgen.InstantiateScaled(net, g, het, seed, 0.1)
	}).ms()}
	var super *ethsim.Supernode
	rec.time("ethsim.Supernode.ConnectAll", setup, func() {
		super = ethsim.NewSupernode(net)
		super.ConnectAll()
	})
	super.SetEstimatorPolicy(txpool.Geth.WithCapacity(512).WithExpiry(75))
	net.StartJanitor(30)
	w := ethsim.NewWorkload(net, 0.2, types.Gwei/10, 2*types.Gwei)
	c.layerTimes["ethsim.prefill_ms"] = []float64{rec.time("ethsim.Workload.Prefill", setup, func() { w.Prefill(300, 5) }).ms()}
	w.Start(0)
	params := core.DefaultParams()
	params.Z = 512
	m := core.NewMeasurer(net, super, params)
	var pre *core.PreprocessReport
	c.layerTimes["core.preprocess_ms"] = []float64{rec.time("core.Measurer.Preprocess", setup, func() { pre = m.Preprocess(inst.IDs) }).ms()}
	targets := pre.EligibleNodes(inst.IDs)
	truth := core.EdgeSetOf(net.Edges())
	c.setupS = rec.end(setup).ms() / 1000

	led := obs.NewLedger()
	m.SetObs(m.Obs(), led)
	m.SetPhase("census")
	txs0 := m.Ledger.PendingCount() + m.Ledger.FutureCount()
	seq0 := net.Engine().SeqCount()
	snap0 := e.reg.Snapshot()

	measure := rec.start("core.Measurer.MeasureNetworkResume", root)
	last := rec.now()
	onBatch := func(*core.CampaignState) error {
		t := rec.now()
		c.steps = append(c.steps, rec.add("batch", measure, last, t).ms())
		last = t
		return nil
	}
	res, err := m.MeasureNetworkResume(targets, censusK, censusEdgeBudget, nil, onBatch)
	c.wallS = rec.end(measure).ms() / 1000
	c.check(err == nil, "census: %v", err)
	if err != nil {
		return c
	}

	c.pairs = res.PairsMeasured
	score := eligibleScore(res.Detected, truth, targets)
	c.precision, c.recall = score.Precision(), score.Recall()
	c.probeTxs = led.Totals().Txs()
	c.virtualS = net.Now()
	c.digest = digest(res.Detected)
	c.check(score.FalsePositives == 0, "census: %d false positives (isolation property)", score.FalsePositives)
	sent := m.Ledger.PendingCount() + m.Ledger.FutureCount() - txs0
	c.check(c.probeTxs == sent, "census: cost ledger has %d txs, measurer sent %d", c.probeTxs, sent)

	c.layer["sim.events"] = float64(net.Engine().SeqCount() - seq0)
	if e.reg != nil {
		addLayerCounts(c, counterDelta(snap0, e.reg.Snapshot()))
	}
	return c
}

// eligibleScore scores measured against truth over pairs of targets.
func eligibleScore(measured, truth *core.EdgeSet, targets []types.NodeID) core.Score {
	in := make(map[types.NodeID]bool, len(targets))
	for _, id := range targets {
		in[id] = true
	}
	return core.ScoreAgainst(measured, truth, func(id types.NodeID) bool { return in[id] })
}
