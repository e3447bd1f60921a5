package experiments

import (
	"errors"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/strategy"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// buildLineNet wires a small line topology with prefilled pools.
func buildLineNet(t testing.TB, seed int64, n int) (*ethsim.Network, *ethsim.Supernode, []types.NodeID) {
	t.Helper()
	cfg := ethsim.DefaultConfig(seed)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	net := ethsim.NewNetwork(cfg)
	pol := txpool.Geth.WithCapacity(256)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: pol, MaxPeers: 50}).ID()
	}
	for i := 0; i+1 < n; i++ {
		if err := net.Connect(ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	w := ethsim.NewWorkload(net, 0, types.Gwei/2, 2*types.Gwei)
	w.Prefill(30*n, 3)
	return net, super, ids
}

// TestTxProbeFloodsOnNonEdges is the Appendix-A claim: the marker reaches
// non-adjacent nodes because Ethereum's account model keeps it valid.
func TestTxProbeFloodsOnNonEdges(t *testing.T) {
	net, super, ids := buildLineNet(t, 1, 6)
	probe := strategy.NewTxProbe(net, super)
	probe.X, probe.Settle = 3, 3
	c, err := probe.MeasurePair(ids[0], ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if !c.Detected {
		t.Fatal("TxProbe should false-positive on the distant pair")
	}
}

func TestTxProbeUnknownNode(t *testing.T) {
	net, super, ids := buildLineNet(t, 2, 3)
	probe := strategy.NewTxProbe(net, super)
	if _, err := probe.MeasurePair(ids[0], 999); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestCompareShowsTopoShotAdvantage(t *testing.T) {
	net, super, ids := buildLineNet(t, 3, 8)
	probe := strategy.NewTxProbe(net, super)
	probe.X, probe.Settle = 3, 3
	params := core.DefaultParams()
	params.Z = 256
	params.X = 3
	params.SettleTime = 4
	m := core.NewMeasurer(net, super, params)
	pairs := [][2]types.NodeID{
		{ids[0], ids[1]}, // edge
		{ids[3], ids[4]}, // edge
		{ids[0], ids[4]}, // non-edge
		{ids[1], ids[6]}, // non-edge
	}
	rep, err := compareTxProbe(m, probe, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopoShot.FalsePositives != 0 {
		t.Errorf("TopoShot FPs = %d", rep.TopoShot.FalsePositives)
	}
	if rep.TopoShot.Recall() != 1 {
		t.Errorf("TopoShot recall = %v", rep.TopoShot.Recall())
	}
	if rep.TxProbe.FalsePositives == 0 {
		t.Errorf("TxProbe unexpectedly clean (account-model flooding absent)")
	}
}

func TestCrawlInactiveOverApproximates(t *testing.T) {
	net, _, _ := buildLineNet(t, 4, 60)
	rep := crawlInactive(net, 4, 4)
	if rep.InactiveEdges == 0 {
		t.Fatal("crawl found nothing")
	}
	// Routing tables are discovery-driven, so they vastly over-approximate
	// the sparse line topology.
	if rep.InactiveEdges <= rep.ActiveEdges {
		t.Fatalf("inactive (%d) should exceed active (%d)", rep.InactiveEdges, rep.ActiveEdges)
	}
	if rep.PrecisionAsActive > 0.5 {
		t.Fatalf("routing tables too precise (%v): W2 distinction lost", rep.PrecisionAsActive)
	}
}

// TestCompareRejectsUnknownPair: the AppA comparison must reject pairs
// referencing nodes the measured network has never seen, with a typed error
// naming the offender, before probing anything.
func TestCompareRejectsUnknownPair(t *testing.T) {
	net, super, ids := buildLineNet(t, 5, 4)
	probe := strategy.NewTxProbe(net, super)
	m := core.NewMeasurer(net, super, core.DefaultParams())
	_, err := compareTxProbe(m, probe, [][2]types.NodeID{
		{ids[0], ids[1]},
		{ids[2], 4242},
	})
	var unknown strategy.UnknownNodeError
	if !errors.As(err, &unknown) {
		t.Fatalf("want strategy.UnknownNodeError, got %v", err)
	}
	if unknown.ID != 4242 {
		t.Fatalf("error names node %d, want 4242", unknown.ID)
	}
	if probe.Cost().Total() != 0 {
		t.Fatal("compareTxProbe probed before validating the pair list")
	}
}

// TestActiveEdgesExcludingNodeZero is the regression for the node-0 sentinel
// bug: using `superID := types.NodeID(0)` as "no supernode" silently drops a
// real node 0's edges from the active count.
func TestActiveEdgesExcludingNodeZero(t *testing.T) {
	s := core.NewEdgeSet()
	s.Add(0, 1)
	s.Add(1, 2)
	if got := activeEdgesExcluding(s, nil); got != 2 {
		t.Fatalf("nil exclusion counted %d edges, want 2 (node 0 is a real node)", got)
	}
	zero := types.NodeID(0)
	if got := activeEdgesExcluding(s, &zero); got != 1 {
		t.Fatalf("excluding node 0 counted %d edges, want 1", got)
	}
}

// TestCrawlInactiveNoSupernode checks that a supernode-less network keeps
// every active edge in the denominator.
func TestCrawlInactiveNoSupernode(t *testing.T) {
	net := ethsim.NewNetwork(ethsim.DefaultConfig(6))
	pol := txpool.Geth.WithCapacity(256)
	ids := make([]types.NodeID, 12)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: pol, MaxPeers: 50}).ID()
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := net.Connect(ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	rep := crawlInactive(net, 2, 6)
	if rep.ActiveEdges != len(ids)-1 {
		t.Fatalf("ActiveEdges = %d, want %d (no supernode to exclude)", rep.ActiveEdges, len(ids)-1)
	}
}
