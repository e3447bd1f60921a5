package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
	"toposhot/internal/metrics"
)

// Tracking size: the Goerli-shaped tracking campaign at trackN nodes. Tick
// latency climbs while the staleness sweep fills the pair budget (tick 12
// with HalfLife 6), so the first trackWarm ticks count as set-up and only the
// trackSteady ticks after them are sampled.
const (
	trackN      = 48
	trackWarm   = 12
	trackSteady = 16
)

// trackCheckpoint is the file every tick's checkpoint overwrites.
var trackCheckpoint = filepath.Join(workDir, "tracking.ckpt")

// runTracking is one experiments.RunTracking run that checkpoints the
// network and the tracker after every tick, like
// `toposhot -track -checkpoint F -checkpoint-every 1`. Set-up is the
// seeding census plus the warm-up ticks; each steady tick, checkpoint
// included, is one step.
func runTracking(e *env, seed int64) *campaign {
	c := newCampaign()
	rec := e.rec
	root := rec.start("tracking", 0)
	defer rec.end(root)

	cfg := experiments.GoerliTracking(seed)
	cfg.Census.Grow = cfg.Census.Grow.WithN(trackN)
	cfg.Ticks = trackWarm + trackSteady

	run := rec.start("experiments.RunTracking", root)
	start := rec.now()
	last, setupEnd := start, start
	var (
		planned      []string
		seq0         uint64
		snap0        metrics.Snapshot
		lastBlobSize int
	)
	cfg.OnTick = func(tt *experiments.TrackingTick) error {
		var blob []byte
		var err error
		ck := rec.time("ethsim.Network.Checkpoint", run, func() { blob, err = tt.Net.Checkpoint() })
		if err != nil {
			return err
		}
		c.layerTimes["ethsim.checkpoint_ms_p50"] = append(c.layerTimes["ethsim.checkpoint_ms_p50"], ck.ms())
		state, err := json.Marshal(tt.Tracker.State())
		if err != nil {
			return err
		}
		if err := writeAtomic(trackCheckpoint, blob, state); err != nil {
			return err
		}
		lastBlobSize = len(blob)
		t := rec.now()
		planned = append(planned, fmt.Sprint(tt.Report.Planned))
		switch {
		case tt.Tick == trackWarm:
			setupEnd = t
			seq0 = tt.Net.Engine().SeqCount()
			snap0 = e.reg.Snapshot()
		case tt.Tick > trackWarm:
			c.steps = append(c.steps, rec.add("tick", run, last, t).ms())
			c.pairs += tt.Report.Probed
		}
		if tt.Tick == cfg.Ticks {
			c.virtualS = tt.Net.Now()
			c.layer["sim.events"] = float64(tt.Net.Engine().SeqCount() - seq0)
			if e.reg != nil {
				addLayerCounts(c, counterDelta(snap0, e.reg.Snapshot()))
			}
		}
		last = t
		return nil
	}
	tr, err := experiments.RunTracking(cfg)
	rec.end(run)
	c.check(err == nil, "tracking: %v", err)
	if err != nil {
		return c
	}
	c.setupS = (setupEnd - start) / 1000
	c.wallS = (last - setupEnd) / 1000
	c.precision, c.recall = tr.FinalScore.Precision(), tr.MeanRecall
	c.probeTxs = tr.BaselineTxs + tr.TrackerTxs
	c.digest = digest(tr.Belief)
	c.layer["ethsim.checkpoint_kb"] = float64(lastBlobSize) / 1024
	c.note = fmt.Sprintf("tracker.planned per tick (ticks 1-%d warm up): %s\n",
		trackWarm, strings.Join(planned, " "))
	return c
}

// afterTracking restores the last checkpoint written once and checks that
// checkpointing the restored network reproduces the blob byte for byte.
func afterTracking(e *env, last *campaign) {
	data, err := os.ReadFile(trackCheckpoint)
	last.check(err == nil, "tracking: read checkpoint: %v", err)
	if err != nil {
		return
	}
	defer os.Remove(trackCheckpoint)
	blob, err := checkpointBlob(data)
	last.check(err == nil, "tracking: %v", err)
	if err != nil {
		return
	}
	var net *ethsim.Network
	sp := e.rec.time("ethsim.RestoreNetwork", 0, func() { net, err = ethsim.RestoreNetwork(blob) })
	last.check(err == nil, "tracking: restore: %v", err)
	if err != nil {
		return
	}
	last.layerTimes["ethsim.restore_ms"] = []float64{sp.ms()}
	again, err := net.Checkpoint()
	last.check(err == nil && bytes.Equal(again, blob),
		"tracking: restore→checkpoint differs from the written blob (err %v)", err)
}

// The checkpoint file is the engine blob's length, the blob, then the
// tracker state as JSON.
func writeAtomic(path string, blob, state []byte) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d\n", len(blob))
	buf.Write(blob)
	buf.Write(state)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// checkpointBlob returns the engine blob of a checkpoint file.
func checkpointBlob(data []byte) ([]byte, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, fmt.Errorf("checkpoint file has no header")
	}
	var n int
	if _, err := fmt.Sscan(string(data[:i]), &n); err != nil || n < 0 || n > len(data)-i-1 {
		return nil, fmt.Errorf("checkpoint file header %q is bad", data[:i])
	}
	return data[i+1 : i+1+n], nil
}
