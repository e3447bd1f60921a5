package main

import (
	"fmt"
	"os"

	"toposhot/internal/experiments"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

// trackingFlags bundles the CLI state the -track mode consumes.
type trackingFlags struct {
	grow   netgen.GrowConfig
	het    netgen.Heterogeneity
	preset string
	seed   int64
	k      int
	lanes  int

	ticks  int
	budget int
	churn  float64

	checkpoint      string
	checkpointEvery int
	resumeFrom      string

	out        string
	flushTrace func() error
	cli        *obs.CLI
	ledger     *obs.Ledger
}

// runTracking drives experiments.RunTracking from the CLI: seeding census,
// churn, per-tick delta campaigns, optional per-tick resumable checkpoints,
// and the final belief edge list on -out.
func runTracking(f trackingFlags) {
	name := f.preset
	if name == "" {
		name = "custom"
	}
	cfg := experiments.TrackingConfig{
		Census: experiments.CensusConfig{
			Name: name, Grow: f.grow, Het: f.het, Seed: f.seed,
			PoolScale: 0.1, GroupK: f.k, EdgeBudget: 144, Prefill: 300,
		},
		Ticks:           f.ticks,
		TickSeconds:     120,
		Tracker:         tracker.Config{Budget: f.budget, HalfLife: 6, MinConfidence: 0.25},
		ChurnInterval:   f.churn,
		ChurnRemoveFrac: 0.5,
		HintEvery:       2,
		Lanes:           f.lanes,
		Ledger:          f.ledger,
	}

	if f.resumeFrom != "" {
		blob, meta, err := readCheckpoint(f.resumeFrom)
		if err != nil {
			f.cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		if meta.Tracking == nil {
			f.cli.Fatal(2, "bad-flags", trace.String("file", f.resumeFrom),
				trace.String("why", "a census-campaign checkpoint; resume it without -track"))
		}
		back := make(map[types.NodeID]int, len(meta.Back))
		for _, p := range meta.Back {
			back[p.ID] = p.V
		}
		cfg.Resume = &experiments.TrackingResume{
			Blob:             blob,
			Tracker:          meta.Tracking.State,
			TicksDone:        meta.Tracking.TicksDone,
			Super:            meta.Super,
			EventIndex:       meta.Tracking.EventIndex,
			Back:             back,
			BaselineTxs:      meta.Tracking.BaselineTxs,
			BaselineEther:    meta.Tracking.BaselineEther,
			BaselineDuration: meta.Tracking.BaselineDuration,
			CensusScore:      meta.Tracking.CensusScore,
			TrackerTxs:       meta.Tracking.TrackerTxs,
			TrackerEther:     meta.Tracking.TrackerEther,
			TrackerDuration:  meta.Tracking.TrackerDuration,
		}
		f.cli.Logger.Info("tracking-resumed", trace.String("file", f.resumeFrom),
			trace.Int("ticks_done", int64(meta.Tracking.TicksDone)), trace.Int("ticks", int64(f.ticks)),
			trace.Int("tracked_pairs", int64(len(meta.Tracking.State.Pairs))),
			trace.Int("probe_txs", int64(meta.Tracking.TrackerTxs)))
	}

	if f.checkpoint != "" {
		every := f.checkpointEvery
		if every < 1 {
			every = 1
		}
		cfg.OnTick = func(tt *experiments.TrackingTick) error {
			if tt.Tick%every != 0 && tt.Tick != f.ticks {
				return nil
			}
			blob, err := tt.Net.Checkpoint()
			if err != nil {
				return err
			}
			meta := &campaignMeta{
				Seed: f.seed, K: f.k, EdgeBudget: 144, Super: tt.Super,
				Targets: tt.Tracker.Targets(), Back: backPairs(tt.Back),
				Tracking: &trackingMeta{
					State:            tt.Tracker.State(),
					TicksDone:        tt.Tick,
					EventIndex:       tt.EventIndex,
					BaselineTxs:      tt.Run.BaselineTxs,
					BaselineEther:    tt.Run.BaselineEther,
					BaselineDuration: tt.Run.BaselineDuration,
					CensusScore:      tt.Run.CensusScore,
					TrackerTxs:       tt.Txs,
					TrackerEther:     tt.Ether,
					TrackerDuration:  tt.TotalDuration,
				},
			}
			return writeCheckpoint(f.checkpoint, blob, meta)
		}
	}

	tr, err := experiments.RunTracking(cfg)
	if err != nil {
		f.cli.Fatal(1, "tracking-failed", obs.Err(err))
	}
	fmt.Fprint(os.Stderr, experiments.FormatTracking(tr))
	fmt.Fprint(os.Stderr, experiments.FormatTrackingCost(tr))
	if err := f.flushTrace(); err != nil {
		f.cli.Fatal(1, "trace-write-failed", obs.Err(err))
	}

	bw, closeOut := openOutput(f.cli, f.out)
	defer closeOut()
	for _, e := range tr.Belief.Edges() {
		va, okA := tr.Back[e[0]]
		vb, okB := tr.Back[e[1]]
		if okA && okB {
			fmt.Fprintf(bw, "%d %d\n", va, vb)
		}
	}
}
