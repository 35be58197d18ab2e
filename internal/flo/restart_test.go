package flo_test

// The restart fault tests run as simnet scenarios (see partition_test.go's
// runRegression): persistence, staggered full-cluster restarts, and
// mid-load crash/rejoin are corpus schedules, with the durability invariant
// (the pre-stop definite prefix survives a restart byte-for-byte) asserted
// by the runner at every restart boundary instead of hand-rolled prefix
// comparisons.

import (
	"fmt"
	"testing"

	"repro/internal/simnet/check"
)

// TestFLORestartFromDisk runs a persisted cluster through a staggered
// full-cluster restart: the pre-restart definite prefix must survive
// verbatim on every node (durability oracle) and the chain must keep
// growing past the restart point (liveness horizon).
func TestFLORestartFromDisk(t *testing.T) {
	runRegression(t, "restart-from-disk", check.RunOpts{})
}

// TestFLOLaggingNodeCatchesUp isolates one node while the rest finalize,
// then heals the partition: the stale-vote catch-up path must bring the
// straggler to the cluster's definite frontier without a Byzantine recovery.
func TestFLOLaggingNodeCatchesUp(t *testing.T) {
	runRegression(t, "lagging-node-catchup", check.RunOpts{})
}

// TestFLORestartUnderLoadRangeSync is the restart-under-load integration
// test: kill one node mid-saturation in a compacting cluster, let the
// survivors pull ahead, and restart it from its DataDir. On top of the
// standard invariants, the Inspect hook requires that the victim (a)
// rejoined via streaming range sync, or by installing a peer's snapshot
// and range-syncing the tail — which one depends on where the peers'
// checkpoints fall — rather than per-round pulls, and (b) replayed only
// the post-snapshot log suffix (its chain base is non-zero, i.e.
// compaction actually anchored the restart).
func TestFLORestartUnderLoadRangeSync(t *testing.T) {
	const victim = 3
	runRegression(t, "restart-under-load-rangesync", check.RunOpts{
		Inspect: func(c *check.Cluster) error {
			inst := c.Nodes[victim].Worker(0)
			if inst.Chain().Base() == 0 {
				return fmt.Errorf("restart replayed the full log: compaction never produced a snapshot base")
			}
			m := inst.Metrics()
			rangeReqs, blocks := m.CatchUpRangeReqs.Load(), m.CatchUpRangeBlocks.Load()
			if m.SnapInstalls.Load() == 0 && (rangeReqs == 0 || blocks == 0) {
				return fmt.Errorf("rejoin used neither range sync (reqs=%d blocks=%d) nor a snapshot install", rangeReqs, blocks)
			}
			// Bounded request counts, not one request per missed round: the
			// blocks fetched measure the gap the rejoin covered, so total
			// requests (range + legacy single-block pulls) must stay well
			// below it — per-round pulling yields one request per block.
			if reqs := rangeReqs + m.CatchUpBlockReqs.Load(); reqs > blocks/2+4 {
				return fmt.Errorf("per-round pulling is back: %d catch-up requests for %d range-synced blocks", reqs, blocks)
			}
			return nil
		},
	})
}
