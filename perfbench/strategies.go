package main

import (
	"fmt"
	"math/rand"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Strategies size: one Goerli-shaped replica of stratN nodes per method, and
// one shared list of stratPairs pairs, half true links and half non-links.
const (
	stratN     = 96
	stratPairs = 120
)

// replica is one method's same-seed network.
type replica struct {
	method strategy.Method
	net    *ethsim.Network
	super  *ethsim.Supernode
	inst   *netgen.Instantiated
	s      strategy.Strategy
}

// timedStrategy forwards to a Strategy and times Prepare and every
// MeasurePair as spans, leaving internal/strategy untouched.
type timedStrategy struct {
	strategy.Strategy
	rec     *recorder
	parent  int
	prepare span
	pairs   []float64 // ms per MeasurePair
}

func (t *timedStrategy) Prepare(pairs [][2]types.NodeID) (err error) {
	t.prepare = t.rec.time("strategy."+t.Name()+".Prepare", t.parent, func() { err = t.Strategy.Prepare(pairs) })
	return err
}

func (t *timedStrategy) MeasurePair(a, b types.NodeID) (c strategy.Claim, err error) {
	sp := t.rec.time("strategy."+t.Name()+".MeasurePair", t.parent, func() { c, err = t.Strategy.MeasurePair(a, b) })
	t.pairs = append(t.pairs, sp.ms())
	return c, err
}

// buildReplica assembles a Goerli-shaped replica the way the Compare
// experiment does, timing the netgen and prefill calls.
func buildReplica(e *env, seed int64, c *campaign, parent int, m strategy.Method) *replica {
	rec := e.rec
	netCfg := ethsim.DefaultConfig(seed)
	netCfg.LatencyTail = 0.05
	netCfg.LatencyMax = 1.0
	r := &replica{method: m, net: ethsim.NewNetwork(netCfg)}
	var g *graph.Graph
	grow := netgen.GoerliConfig.WithSeed(seed).WithN(stratN)
	c.layerTimes["netgen.grow_ms"] = append(c.layerTimes["netgen.grow_ms"],
		rec.time("netgen.Grow", parent, func() { g = netgen.Grow(grow) }).ms())
	het := netgen.Uniform()
	het.Expiry = 75
	c.layerTimes["netgen.instantiate_ms"] = append(c.layerTimes["netgen.instantiate_ms"],
		rec.time("netgen.InstantiateScaled", parent, func() { r.inst = netgen.InstantiateScaled(r.net, g, het, seed, 0.1) }).ms())
	r.super = ethsim.NewSupernode(r.net)
	r.super.ConnectAll()
	r.super.SetEstimatorPolicy(txpool.Geth.WithCapacity(512).WithExpiry(75))
	r.net.StartJanitor(30)
	w := ethsim.NewWorkload(r.net, 0.2, types.Gwei/10, 2*types.Gwei)
	c.layerTimes["ethsim.prefill_ms"] = append(c.layerTimes["ethsim.prefill_ms"],
		rec.time("ethsim.Workload.Prefill", parent, func() { w.Prefill(350, 5) }).ms())
	w.Start(0)
	params := core.DefaultParams()
	params.Z = 512
	var err error
	r.s, err = strategy.NewMethod(m, r.net, r.super, strategy.Config{TopoShot: params, EthnaSamples: 64})
	if err != nil {
		panic(err) // the four built-in methods always construct
	}
	return r
}

// drawPairs picks stratPairs/2 true links and stratPairs/2 non-links among
// the replica's nodes (the supernode excluded) from the workload seed.
func drawPairs(seed int64, truth *core.EdgeSet, ids []types.NodeID, super types.NodeID) [][2]types.NodeID {
	rng := rand.New(rand.NewSource(seed))
	var links [][2]types.NodeID
	for _, e := range truth.Edges() {
		if e[0] != super && e[1] != super {
			links = append(links, e)
		}
	}
	picked := core.NewEdgeSet()
	var pairs [][2]types.NodeID
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, e := range links[:min(len(links), stratPairs/2)] {
		picked.Add(e[0], e[1])
		pairs = append(pairs, e)
	}
	for len(pairs) < stratPairs {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b || truth.Has(a, b) || picked.Has(a, b) {
			continue
		}
		picked.Add(a, b)
		pairs = append(pairs, [2]types.NodeID{a, b})
	}
	return pairs
}

// runStrategies builds four same-seed replicas (set-up), then runs
// strategy.RunPairs for every method over one pair list, fanned out on
// runner.MapWorker. A step is one TopoShot MeasurePair, the critical path.
func runStrategies(e *env, seed int64) *campaign {
	c := newCampaign()
	rec := e.rec
	root := rec.start("strategies", 0)
	defer rec.end(root)

	setup := rec.start("setup", root)
	reps := make([]*replica, len(methods))
	for i, m := range methods {
		reps[i] = buildReplica(e, seed, c, setup, strategy.Method(m))
	}
	truth := core.EdgeSetOf(reps[0].net.Edges())
	same := true
	for _, r := range reps[1:] {
		same = same && digest(core.EdgeSetOf(r.net.Edges())) == digest(truth)
	}
	c.check(same, "strategies: same-seed replicas built different topologies")
	pairs := drawPairs(seed, truth, reps[0].inst.IDs, reps[0].super.ID())
	c.setupS = rec.end(setup).ms() / 1000

	// Telemetry surfaces are created serially, before the fan-out.
	lanes := make([]*trace.Tracer, len(reps))
	scopes := make([]*obs.Logger, len(reps))
	for i, r := range reps {
		lanes[i] = trace.Enabled().Lane("strategy:"+string(r.method), nil)
		scopes[i] = obs.Enabled().Scope("strategy:"+string(r.method), nil)
	}
	seq0 := make([]uint64, len(reps))
	for i, r := range reps {
		seq0[i] = r.net.Engine().SeqCount()
	}
	snap0 := e.reg.Snapshot()

	type outcome struct {
		out   *strategy.Outcome
		err   error
		ts    *timedStrategy
		spent span
	}
	measure := rec.start("runner.MapWorker", root)
	outs := runner.MapWorker(e.width, len(reps), func(_, i int) outcome {
		r := reps[i]
		id := rec.start("strategy.RunPairs."+string(r.method), measure)
		ts := &timedStrategy{Strategy: r.s, rec: rec, parent: id}
		out, err := strategy.RunPairs(lanes[i], scopes[i], r.net, ts, pairs)
		return outcome{out: out, err: err, ts: ts, spent: rec.end(id)}
	})
	wall := rec.end(measure)
	c.wallS = wall.ms() / 1000
	if e.reg != nil {
		addLayerCounts(c, counterDelta(snap0, e.reg.Snapshot()))
	}

	var pooled core.Score
	busy := 0.0
	claimed := make([]*core.EdgeSet, 0, len(outs))
	for i, o := range outs {
		m := methods[i]
		c.check(o.err == nil, "strategies: %s: %v", m, o.err)
		if o.err != nil {
			return c
		}
		sc := o.out.Score(truth)
		if m == string(strategy.MethodTopoShot) {
			c.check(sc.FalsePositives == 0, "strategies: toposhot: %d false positives", sc.FalsePositives)
			c.steps = o.ts.pairs
		}
		pooled.TruePositives += sc.TruePositives
		pooled.FalsePositives += sc.FalsePositives
		pooled.FalseNegatives += sc.FalseNegatives
		c.probeTxs += o.out.LedgerCost().Total()
		c.virtualS += reps[i].net.Now()
		c.pairs += len(pairs)
		claimed = append(claimed, o.out.Claimed)
		busy += o.spent.ms()

		p := "strategy." + m
		c.layerTimes[p+".campaign_s"] = []float64{o.spent.ms() / 1000}
		c.layerTimes[p+".prepare_ms"] = []float64{o.ts.prepare.ms()}
		c.layerTimes[p+".pair_ms_p50"] = o.ts.pairs
		c.layer[p+".probe_txs"] = float64(o.out.LedgerCost().Total())
		c.layer[p+".recall"] = sc.Recall()
		c.layer["sim.events"] += float64(reps[i].net.Engine().SeqCount() - seq0[i])
	}
	c.layerTimes["runner.busy_ratio"] = []float64{busy / (wall.ms() * float64(min(e.width, len(reps))))}
	c.precision, c.recall = pooled.Precision(), pooled.Recall()
	c.digest = digest(claimed...)
	c.note = fmt.Sprintf("strategies: %d pairs (%d links) per method, pool width %d\n",
		len(pairs), stratPairs/2, e.width)
	return c
}
