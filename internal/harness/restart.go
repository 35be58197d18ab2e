package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/transport"
	"repro/internal/workload"
)

// RestartOptions parameterizes the kill-and-restart-under-load experiment:
// a cluster runs saturating load, one node is killed, the survivors keep
// finalizing for DowntimeRounds, and the victim restarts from its DataDir —
// measuring how long rejoining takes and how many catch-up requests it
// costs (the streaming range-sync acceptance metric).
type RestartOptions struct {
	// N is the cluster size (default 4).
	N int
	// Batch is β, TxSize is σ.
	Batch  int
	TxSize int
	// CatchUpBatch is the range-sync batch (flo.Config.CatchUpBatch).
	CatchUpBatch int
	// SnapshotEvery enables checkpoint/compaction on every node (0 off).
	SnapshotEvery uint64
	// WarmupRounds finalize before the kill; DowntimeRounds finalize while
	// the victim is down.
	WarmupRounds   uint64
	DowntimeRounds uint64
	// InitialTimer seeds the WRB timer (default 20ms).
	InitialTimer time.Duration
	// DataDir holds per-node state (a temp dir is created when empty).
	DataDir string
	// Timeout bounds each wait phase (default 120s).
	Timeout time.Duration
}

// RestartResult reports one restart run.
type RestartResult struct {
	// KillTip / RestartTarget are the victim's definite tip at the kill
	// and the cluster's definite tip at the restart moment.
	KillTip       uint64
	RestartTarget uint64
	// ReplayBase / ReplayTip delimit the log suffix replayed on restart
	// (ReplayBase > 0 means the log was compacted to a snapshot anchor).
	ReplayBase uint64
	ReplayTip  uint64
	// RejoinTime is restart-to-target catch-up latency.
	RejoinTime time.Duration
	// RangeReqs / RangeBlocks / BlockReqs are the victim's catch-up
	// counters at rejoin.
	RangeReqs   uint64
	RangeBlocks uint64
	BlockReqs   uint64
}

// RunRestart executes one restart-under-load experiment.
func RunRestart(opts RestartOptions) (RestartResult, error) {
	if opts.N == 0 {
		opts.N = 4
	}
	if opts.Batch == 0 {
		opts.Batch = 50
	}
	if opts.TxSize == 0 {
		opts.TxSize = 256
	}
	if opts.CatchUpBatch == 0 {
		opts.CatchUpBatch = 64
	}
	if opts.WarmupRounds == 0 {
		opts.WarmupRounds = 5
	}
	if opts.DowntimeRounds == 0 {
		opts.DowntimeRounds = 50
	}
	if opts.InitialTimer == 0 {
		opts.InitialTimer = 20 * time.Millisecond
	}
	if opts.Timeout == 0 {
		opts.Timeout = 120 * time.Second
	}
	if opts.DataDir == "" {
		dir, err := os.MkdirTemp("", "fl-restart-*")
		if err != nil {
			return RestartResult{}, err
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
	}

	ks := flcrypto.MustGenerateKeySet(opts.N, flcrypto.Ed25519)
	net := transport.NewChanNetwork(transport.ChanConfig{N: opts.N})
	defer net.Close()

	mkCfg := func(i int, ep transport.Endpoint) flo.Config {
		return flo.Config{
			Endpoint:      ep,
			Registry:      ks.Registry,
			Priv:          ks.Privs[i],
			Workers:       1,
			BatchSize:     opts.Batch,
			Source:        workload.Saturating(flcrypto.NodeID(i), opts.TxSize),
			DataDir:       filepath.Join(opts.DataDir, fmt.Sprintf("node%d", i)),
			CatchUpBatch:  opts.CatchUpBatch,
			SnapshotEvery: opts.SnapshotEvery,
			InitialTimer:  opts.InitialTimer,
		}
	}
	nodes := make([]*flo.Node, opts.N)
	for i := 0; i < opts.N; i++ {
		node, err := flo.NewNode(mkCfg(i, net.Endpoint(flcrypto.NodeID(i))))
		if err != nil {
			return RestartResult{}, err
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	stopAll := func() {
		for _, node := range nodes {
			if node != nil {
				node.Stop()
			}
		}
	}
	defer stopAll()

	waitDef := func(idx []int, target uint64) error {
		deadline := time.Now().Add(opts.Timeout)
		for {
			done := true
			for _, i := range idx {
				if nodes[i].Worker(0).Chain().Definite() < target {
					done = false
					break
				}
			}
			if done {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("harness: stalled waiting for definite round %d", target)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	all := make([]int, opts.N)
	survivors := make([]int, 0, opts.N-1)
	victim := opts.N - 1
	for i := range all {
		all[i] = i
		if i != victim {
			survivors = append(survivors, i)
		}
	}

	var res RestartResult
	if err := waitDef(all, opts.WarmupRounds); err != nil {
		return res, err
	}

	// Kill the victim mid-saturation.
	res.KillTip = nodes[victim].Worker(0).Chain().Definite()
	net.Crash(flcrypto.NodeID(victim))
	nodes[victim].Stop()
	nodes[victim] = nil

	// Let the survivors finalize DowntimeRounds more.
	if err := waitDef(survivors, res.KillTip+opts.DowntimeRounds); err != nil {
		return res, err
	}
	res.RestartTarget = nodes[survivors[0]].Worker(0).Chain().Definite()

	// Restart from disk and measure the rejoin.
	net.Heal(flcrypto.NodeID(victim))
	ep := net.Reattach(flcrypto.NodeID(victim))
	node, err := flo.NewNode(mkCfg(victim, ep))
	if err != nil {
		return res, err
	}
	nodes[victim] = node
	res.ReplayBase = node.Worker(0).Chain().Base()
	res.ReplayTip = node.Worker(0).Chain().Definite()
	start := time.Now()
	node.Start()
	if err := waitDef([]int{victim}, res.RestartTarget); err != nil {
		return res, err
	}
	res.RejoinTime = time.Since(start)
	m := node.Worker(0).Metrics()
	res.RangeReqs = m.CatchUpRangeReqs.Load()
	res.RangeBlocks = m.CatchUpRangeBlocks.Load()
	res.BlockReqs = m.CatchUpBlockReqs.Load()
	return res, nil
}

// ExtRestart is the restart-under-load experiment: rejoin time and catch-up
// request counts across downtime depths, with and without compaction.
func ExtRestart(w io.Writer, s Scale) {
	fmt.Fprintf(w, "# ext-restart: kill one node under saturating load, restart from disk (n=4, beta=50, sigma=256, catchup-batch=32)\n")
	fmt.Fprintf(w, "downtime_rounds\tsnapshot_every\treplay_base\treplay_tip\trejoin_ms\trange_reqs\trange_blocks\tblock_reqs\n")
	downtimes := []uint64{50, 200}
	if s.Duration >= 5*time.Second { // the full profile digs deeper
		downtimes = []uint64{50, 200, 1000}
	}
	for _, down := range downtimes {
		for _, snap := range []uint64{0, 20} {
			warmup := uint64(5)
			if snap > 0 {
				// Long enough that the victim checkpoints (and compacts)
				// before dying, so the restart exercises anchored replay.
				warmup = 2*snap + 12
			}
			res, err := RunRestart(RestartOptions{
				WarmupRounds:   warmup,
				DowntimeRounds: down,
				CatchUpBatch:   32,
				SnapshotEvery:  snap,
			})
			if err != nil {
				fmt.Fprintf(w, "%d\t%d\terror: %v\n", down, snap, err)
				continue
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\n",
				down, snap, res.ReplayBase, res.ReplayTip,
				float64(res.RejoinTime.Microseconds())/1000, res.RangeReqs, res.RangeBlocks, res.BlockReqs)
		}
	}
}

func init() {
	Experiments["ext-restart"] = ExtRestart
	ExperimentOrder = append(ExperimentOrder, "ext-restart")
}
