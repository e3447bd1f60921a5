package ethsim

import (
	"math"
	"reflect"
	"testing"

	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestFlushCoalescesWindow pins the coalescing contract: every admission
// inside one FlushInterval rides a single flush, producing exactly one
// Transactions message per pushed peer — not one message per admission.
func TestFlushCoalescesWindow(t *testing.T) {
	net := testNet(11)
	ids := addNodes(net, 2, 64)
	if err := net.Connect(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	a, b := net.Node(ids[0]), net.Node(ids[1])

	// Two admissions at t=0, both inside the first coalescing window.
	tx1 := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(9), 0, types.Gwei, 0)
	tx2 := types.NewTransaction(types.AddressFromUint64(2), types.AddressFromUint64(9), 0, types.Gwei, 0)
	a.SubmitLocal(tx1)
	a.SubmitLocal(tx2)
	net.RunFor(5)

	// B's only peer is A (the exclude), so B sends nothing back: the single
	// message on the wire is A's one batched flush.
	if got := net.MsgCounts()["txs"]; got != 1 {
		t.Fatalf("txs messages after one window = %d, want 1 (flush not coalesced)", got)
	}
	if !b.Pool().Has(tx1.Hash()) || !b.Pool().Has(tx2.Hash()) {
		t.Fatal("batched flush did not deliver both transactions")
	}

	// A later admission opens a fresh window and a second flush.
	tx3 := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(9), 0, types.Gwei, 0)
	a.SubmitLocal(tx3)
	net.RunFor(5)
	if got := net.MsgCounts()["txs"]; got != 2 {
		t.Fatalf("txs messages after second window = %d, want 2", got)
	}
}

// TestPropagateEmptyBatchSchedulesNothing guards the propagate early-return:
// an empty transaction set must neither arm the flush timer nor enqueue
// anything (the pre-overhaul code checked the out-queue instead of the input
// and the guard was dead).
func TestPropagateEmptyBatchSchedulesNothing(t *testing.T) {
	net := testNet(12)
	ids := addNodes(net, 2, 64)
	if err := net.Connect(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	nd := net.Node(ids[0])
	pending := net.Engine().Pending()
	nd.propagate(nd.id, nil)
	if nd.flushScheduled {
		t.Fatal("empty propagate armed the flush timer")
	}
	if got := net.Engine().Pending(); got != pending {
		t.Fatalf("empty propagate scheduled an event: pending %d -> %d", pending, got)
	}
	if len(nd.outQ) != 0 {
		t.Fatalf("empty propagate enqueued %d items", len(nd.outQ))
	}
}

// TestPeersCachedSortedCopy pins the Peers() contract over the incrementally
// maintained sorted peer list: ascending order after arbitrary add/remove,
// and a fresh copy per call that callers may mutate freely.
func TestPeersCachedSortedCopy(t *testing.T) {
	net := testNet(13)
	ids := addNodes(net, 6, 64)
	nd := net.Node(ids[0])
	// Connect out of id order, with one disconnect in the middle.
	for _, i := range []int{4, 1, 5, 2, 3} {
		if err := net.Connect(ids[0], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	net.Disconnect(ids[0], ids[2])

	got := nd.Peers()
	want := []types.NodeID{ids[1], ids[3], ids[4], ids[5]}
	if len(got) != len(want) {
		t.Fatalf("peers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peers = %v, want %v (sorted order broken)", got, want)
		}
	}

	// Mutating the returned slice must not reach the node's cache.
	got[0] = 999
	again := nd.Peers()
	if again[0] != want[0] {
		t.Fatal("Peers() returned the backing slice, not a copy")
	}

	// Duplicate connect is a no-op on the cache.
	_ = net.Connect(ids[0], ids[1])
	if len(nd.Peers()) != len(want) {
		t.Fatal("duplicate connect grew the sorted peer list")
	}
}

// TestAnnounceLockSweepRing drives sweepAnnounceLocks through the
// expiry-ordered ring directly: expired prefixes pop, a re-armed hash's
// stale ring entry is skipped (the map deadline is authoritative), and the
// dead prefix compacts away.
func TestAnnounceLockSweepRing(t *testing.T) {
	net := testNet(14)
	nd := net.AddNode(DefaultNodeConfig())
	arm := func(h types.Hash, until float64) {
		nd.armAnnounceLock(h, until)
	}
	h1 := types.BytesToHash([]byte{1})
	h2 := types.BytesToHash([]byte{2})
	h3 := types.BytesToHash([]byte{3})
	arm(h1, 5)
	arm(h2, 6)
	arm(h3, 7)

	nd.sweepAnnounceLocks(5.5)
	if _, ok := nd.announceLock[h1]; ok {
		t.Fatal("expired lock h1 survived the sweep")
	}
	if _, ok := nd.announceLock[h2]; !ok {
		t.Fatal("live lock h2 swept early")
	}

	// Re-arm h3 with a later deadline, as deliverAnnounce does after expiry:
	// the old ring entry (until=7) goes stale but the map now says 12.
	nd.announceLock[h3] = 12
	nd.lockQ = append(nd.lockQ, lockEntry{h: h3, until: 12})

	nd.sweepAnnounceLocks(8)
	if until, ok := nd.announceLock[h3]; !ok || until != 12 {
		t.Fatalf("re-armed lock h3 deleted by its stale ring entry (lock=%v,%v)", until, ok)
	}
	if _, ok := nd.announceLock[h2]; ok {
		t.Fatal("expired lock h2 survived the sweep")
	}

	nd.sweepAnnounceLocks(12)
	if len(nd.announceLock) != 0 {
		t.Fatalf("locks remain after final sweep: %v", nd.announceLock)
	}
	if nd.lockQHead != 0 || len(nd.lockQ) != 0 {
		t.Fatalf("drained ring not compacted: head=%d len=%d", nd.lockQHead, len(nd.lockQ))
	}
}

// TestAnnounceLockStillFiltersDuplicates is the behavioral complement of the
// ring test: within the lock window a second announcement of the same hash
// triggers no second request.
func TestAnnounceLockStillFiltersDuplicates(t *testing.T) {
	net := testNet(15)
	nd := net.AddNode(DefaultNodeConfig())
	src := net.AddNode(DefaultNodeConfig())
	if err := net.Connect(nd.ID(), src.ID()); err != nil {
		t.Fatal(err)
	}
	tx := types.NewTransaction(types.AddressFromUint64(0xaa), types.AddressFromUint64(1), 0, types.Gwei, 0)
	nd.deliverAnnounce(src.ID(), []outItem{{tx: tx}})
	nd.deliverAnnounce(src.ID(), []outItem{{tx: tx}})
	net.RunFor(5)
	if got := net.MsgCounts()["request"]; got != 1 {
		t.Fatalf("requests after duplicate announce = %d, want 1", got)
	}
}

// BenchmarkGossipFlood measures one full flood — SubmitLocal at a rotating
// origin through delivery at every node on a 100-node ring-with-chords —
// per op. allocs/op divided by the reported msgs/op approximates allocations
// per delivered message, the tentpole's ≥50% reduction target.
func BenchmarkGossipFlood(b *testing.B) {
	net := testNet(7)
	ids := addNodes(net, 100, 1<<14)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+29)%len(ids)])
	}
	net.StartJanitor(5)
	// Warm the arenas: a few floods grow the event arena, message pool, and
	// per-node scratch buffers to their steady-state footprint.
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	base := net.MsgCounts()["txs"] + net.MsgCounts()["announce"] + net.MsgCounts()["request"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	b.StopTimer()
	delivered := net.MsgCounts()["txs"] + net.MsgCounts()["announce"] + net.MsgCounts()["request"] - base
	b.ReportMetric(float64(delivered)/float64(b.N), "msgs/op")
}

// benchFloodNet builds the BenchmarkGossipFlood topology with its arenas
// warmed, so the trace on/off variants measure the identical workload.
func benchFloodNet(seed int64) (*Network, []types.NodeID) {
	net := testNet(seed)
	ids := addNodes(net, 100, 1<<14)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+29)%len(ids)])
	}
	net.StartJanitor(5)
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	return net, ids
}

func benchFlood(b *testing.B, net *Network, ids []types.NodeID) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
}

// BenchmarkGossipFloodTracedOff attaches a measure-level tracer, which
// leaves engine events gated off: the flood hot path pays exactly one
// pre-resolved bool branch per emission site. The delta against
// BenchmarkGossipFlood is the cost of having tracing wired but quiet —
// it must stay ~zero (and allocation-free) to protect the hot-path wins.
func BenchmarkGossipFloodTracedOff(b *testing.B) {
	net, ids := benchFloodNet(7)
	net.SetTracer(trace.New(trace.Options{Level: trace.LevelMeasure}))
	benchFlood(b, net, ids)
}

// BenchmarkGossipFloodTraced records engine events (msg-enqueue,
// msg-deliver, evictions, replacement outcomes) into the ring buffer while
// flooding; the delta against BenchmarkGossipFlood is the trace-on
// overhead reported in the PR description.
func BenchmarkGossipFloodTraced(b *testing.B) {
	net, ids := benchFloodNet(7)
	net.SetTracer(trace.New(trace.Options{Level: trace.LevelEngine, Deterministic: true}))
	benchFlood(b, net, ids)
}

// BenchmarkGossipFloodLegacy floods the same topology under LegacyPushAll
// (push to every peer, no announcements) — the heavier per-flush path.
func BenchmarkGossipFloodLegacy(b *testing.B) {
	net := testNet(8)
	ids := make([]types.NodeID, 100)
	for i := range ids {
		ids[i] = net.AddNode(NodeConfig{
			Policy:        txpool.Geth.WithCapacity(1 << 14),
			MaxPeers:      50,
			LegacyPushAll: true,
		}).ID()
	}
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
	}
	net.StartJanitor(5)
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
}

// refFlush is the per-peer copy fan-out that the shared gossip batch
// replaced, kept as the reference model: every message gets its own filtered
// copy of the out-queue in a slot-owned buffer, and an empty copy frees its
// slot again.
func refFlush(nd *Node) {
	nd.flushScheduled = false
	net := nd.net
	q := nd.outQ
	peers := nd.peersSeg()
	pushCount := len(peers)
	if !nd.cfg.LegacyPushAll {
		pushCount = int(math.Ceil(math.Sqrt(float64(len(peers)))))
	}
	for i, pi := range net.eng.Perm(len(peers)) {
		peer := peers[pi]
		kind := msgAnnounce
		if i < pushCount {
			kind = msgTxs
		}
		mi := net.msgTo(kind, nd.id, peer)
		if mi < 0 {
			continue
		}
		view := net.msgs[mi].items[:0]
		for _, it := range q {
			if it.exclude != peer {
				view = append(view, outItem{tx: it.tx})
			}
		}
		net.msgs[mi].items = view
		if len(view) == 0 {
			net.freeMsg(mi)
			continue
		}
		net.route(mi)
	}
	nd.outQ = q[:0]
}

// fanoutNet builds a hub with nine peers (three pushed, six announced to)
// and a scrambled message free list, so slot reuse order is exercised.
func fanoutNet(legacy bool) (*Network, *Node, []types.NodeID) {
	net := testNet(21)
	hub := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64), MaxPeers: 50, LegacyPushAll: legacy})
	peers := addNodes(net, 9, 64)
	for _, p := range peers {
		_ = net.Connect(hub.id, p)
	}
	slots := make([]int32, 5)
	for i := range slots {
		slots[i] = net.msgTo(msgTxs, hub.id, peers[0])
	}
	for _, i := range []int{3, 0, 4, 1, 2} {
		net.freeMsg(slots[i])
	}
	return net, hub, peers
}

// TestFlushSharedBatchMatchesPerPeerCopy checks the shared-batch fan-out
// against the per-peer copy it replaced, on twin networks: the same slots
// allocated and freed in the same order, each live message's receiver view
// equal to the old filtered copy, the same engine state, and after delivery
// the same message tallies and pool contents. Every batch must be back on
// the free list, cleared, once its messages are delivered.
func TestFlushSharedBatchMatchesPerPeerCopy(t *testing.T) {
	txs := make([]*types.Transaction, 12)
	for i := range txs {
		txs[i] = types.NewTransaction(types.AddressFromUint64(uint64(100+i)), types.AddressFromUint64(9), 0, types.Gwei, 0)
	}
	cases := []struct {
		name    string
		legacy  bool
		exclude func(i int, hub types.NodeID, peers []types.NodeID) types.NodeID
	}{
		{"mixed", false, func(i int, hub types.NodeID, peers []types.NodeID) types.NodeID {
			return []types.NodeID{peers[0], peers[3], hub, peers[7]}[i%4]
		}},
		{"all-same-peer", false, func(_ int, _ types.NodeID, peers []types.NodeID) types.NodeID { return peers[2] }},
		{"all-local", false, func(_ int, hub types.NodeID, _ []types.NodeID) types.NodeID { return hub }},
		{"legacy-all-same-peer", true, func(_ int, _ types.NodeID, peers []types.NodeID) types.NodeID { return peers[5] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotHub, peers := fanoutNet(c.legacy)
			want, wantHub, _ := fanoutNet(c.legacy)
			for i, tx := range txs {
				ex := c.exclude(i, gotHub.id, peers)
				gotHub.outQ = append(gotHub.outQ, outItem{tx: tx, exclude: ex})
				wantHub.outQ = append(wantHub.outQ, outItem{tx: tx, exclude: ex})
			}
			gotHub.flush()
			refFlush(wantHub)

			if len(got.msgs) != len(want.msgs) || !reflect.DeepEqual(got.msgFree, want.msgFree) {
				t.Fatalf("arena: %d slots free %v, want %d slots free %v", len(got.msgs), got.msgFree, len(want.msgs), want.msgFree)
			}
			live := 0
			for i := range got.msgs {
				g, w := &got.msgs[i], &want.msgs[i]
				if (g.dst == nil) != (w.dst == nil) {
					t.Fatalf("slot %d: live=%v, want %v", i, g.dst != nil, w.dst != nil)
				}
				if g.dst == nil {
					continue
				}
				live++
				if g.kind != w.kind || g.from != w.from || g.dst.id != w.dst.id || g.sent != w.sent {
					t.Fatalf("slot %d: %v %v->%v at %v, want %v %v->%v at %v",
						i, g.kind, g.from, g.dst.id, g.sent, w.kind, w.from, w.dst.id, w.sent)
				}
				var view []*types.Transaction
				for _, it := range g.view() {
					if it.exclude != g.dst.id {
						view = append(view, it.tx)
					}
				}
				var ref []*types.Transaction
				for _, it := range w.items {
					ref = append(ref, it.tx)
				}
				if !reflect.DeepEqual(view, ref) {
					t.Fatalf("slot %d (%v to %v): view of %d txs, want the %d-tx copy", i, g.kind, g.dst.id, len(view), len(ref))
				}
			}
			if live == 0 {
				t.Fatal("flush sent nothing")
			}
			if got.eng.Pending() != want.eng.Pending() || got.eng.SeqCount() != want.eng.SeqCount() ||
				got.eng.RandDraws() != want.eng.RandDraws() {
				t.Fatal("engine state diverged from the per-peer copy")
			}

			got.RunFor(5)
			want.RunFor(5)
			if !reflect.DeepEqual(got.MsgCounts(), want.MsgCounts()) {
				t.Fatalf("tallies %v, want %v", got.MsgCounts(), want.MsgCounts())
			}
			for i, nd := range got.nodes {
				if g, w := poolHashes(nd), poolHashes(want.nodes[i]); !reflect.DeepEqual(g, w) {
					t.Fatalf("node %v pool %v, want %v", nd.id, g, w)
				}
			}
			if len(got.batchFree) == 0 {
				t.Fatal("no batch returned to the free list")
			}
			for _, b := range got.batchFree {
				if b.refs != 0 || len(b.items) != 0 || (cap(b.items) > 0 && b.items[:1][0].tx != nil) {
					t.Fatalf("recycled batch not released and cleared: refs=%d len=%d", b.refs, len(b.items))
				}
			}
		})
	}
}

func poolHashes(nd *Node) []types.Hash {
	var out []types.Hash
	for _, tx := range nd.Pool().Content() {
		out = append(out, tx.Hash())
	}
	return out
}

// BenchmarkFlushFanout measures one flush of a 500-item out-queue to 40
// peers: the per-op cost of the gossip fan-out itself, with deliveries
// dropped (the peers are unresponsive) so the receivers' mempools stay out
// of the measurement. B/op and allocs/op show what the fan-out copies.
func BenchmarkFlushFanout(b *testing.B) {
	net := testNet(9)
	hub := net.AddNode(DefaultNodeConfig())
	peers := make([]types.NodeID, 40)
	for i := range peers {
		peers[i] = net.AddNode(NodeConfig{Policy: txpool.Geth, MaxPeers: 50, Unresponsive: true}).ID()
		_ = net.Connect(hub.id, peers[i])
	}
	q := make([]outItem, 500)
	for i := range q {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		tx.Hash() // memoize outside the timed loop
		q[i] = outItem{tx: tx, exclude: peers[i%len(peers)]}
	}
	fill := func() {
		hub.outQ = append(hub.outQ[:0], q...)
		hub.flush()
		net.Run(1 << 30)
	}
	for i := 0; i < 4; i++ {
		fill() // grow the arena, event queue and buffers to steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}
