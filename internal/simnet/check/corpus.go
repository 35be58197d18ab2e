package check

import (
	"fmt"
	"time"
)

// RegressionScenarios is the curated seeded corpus: the original
// hand-written fault tests (internal/flo's partition and restart suites)
// ported onto the scenario API, plus schedule shapes that reproduce bugs
// this repository actually shipped and fixed. The corpus runs in the
// sim-smoke CI job and anchors the randomized campaigns — a seed that once
// caught a bug joins this list.
func RegressionScenarios() []Scenario {
	return []Scenario{
		{
			// Port of flo.TestPartitionHealConvergence: one node cut off
			// while the majority keeps deciding; after healing it must chase
			// the frontier and agree on the whole definite prefix. The
			// no-quorum stall oracle covers the "isolated node must not
			// advance" half automatically.
			Name: "partition-heal", Seed: 101,
			Events: []Event{
				{Kind: EvIsolate, At: 0, Dur: 900 * time.Millisecond, Node: 3},
			},
			Horizon: 6,
		},
		{
			// Port of flo.TestMinorityPartitionStallsThenRecovers: a 2–2
			// split leaves neither side with a quorum (n−f = 3), so no new
			// definite decisions may appear — asserted by the runner's
			// no-quorum stall check at heal time — and after healing both
			// sides resume and agree.
			Name: "minority-partition", Seed: 102,
			Events: []Event{
				{Kind: EvPartition, At: 0, Dur: 1200 * time.Millisecond, Group: []int{0, 1}},
			},
			Horizon: 6,
		},
		{
			// Port of flo.TestFLORestartFromDisk: a persisted cluster is
			// fully restarted (staggered); the pre-restart definite prefix
			// must survive verbatim (durability oracle) and the chain must
			// keep growing past the restart point (liveness horizon).
			Name: "restart-from-disk", Seed: 103,
			Persist: true,
			Events: []Event{
				{Kind: EvRollingRestart, At: 100 * time.Millisecond, Dur: 800 * time.Millisecond},
			},
			Warmup:  6,
			Horizon: 6,
		},
		{
			// Port of flo.TestFLOLaggingNodeCatchesUp: cut one node off,
			// heal, and require the straggler's stale-vote catch-up to bring
			// it to the frontier without a Byzantine recovery.
			Name: "lagging-node-catchup", Seed: 104,
			Events: []Event{
				{Kind: EvIsolate, At: 0, Dur: 700 * time.Millisecond, Node: 3},
			},
			Warmup:  3,
			Horizon: 5,
		},
		{
			// Port of flo.TestFLORestartUnderLoadRangeSync: kill one node of
			// a persisted, compacting cluster mid-saturation, let the
			// survivors pull far ahead, and restart it from its DataDir.
			// The ported flo test layers an Inspect hook over this scenario
			// asserting the rejoin used streaming range sync from a
			// compacted (non-zero) snapshot base.
			Name: "restart-under-load-rangesync", Seed: 105,
			Persist: true, SnapshotEvery: 10, CatchUpBatch: 8,
			Events: []Event{
				{Kind: EvRestart, At: 0, Dur: 2500 * time.Millisecond, Node: 3},
			},
			Warmup:  21,
			Horizon: 6,
		},
		{
			// A split-proposer working against a lossy network: the class of
			// schedule that exposed the memoized-body mutation bug (PR 3's
			// proposeEquivocating fix) — honest nodes must keep agreeing and
			// progressing while recoveries churn.
			Name: "equivocator-lossy", Seed: 106,
			Equivocators: []int{2},
			Events: []Event{
				{Kind: EvLossy, At: 0, Dur: 900 * time.Millisecond, Drop: 0.15, Dup: 0.05, Jitter: 5 * time.Millisecond},
			},
			Horizon: 3,
		},
		{
			// Staggered full-cluster restart under load with persistence and
			// compaction — the proposer-amnesia shape (PR 2's ProposalLog
			// fix): a rebooted proposer must re-propose byte-identical
			// blocks for slots it already signed, or a peer wedges behind a
			// definite conflict.
			Name: "rolling-restart-compaction", Seed: 107,
			Persist: true, SnapshotEvery: 8, CatchUpBatch: 8,
			Events: []Event{
				{Kind: EvRollingRestart, At: 0, Dur: 1000 * time.Millisecond},
				{Kind: EvLossy, At: 1100 * time.Millisecond, Dur: 500 * time.Millisecond, Drop: 0.1},
			},
			Warmup:  9,
			Horizon: 6,
		},
		{
			// Found by Explore (seed 9 of the first campaign): a node that
			// WRB-delivers a proposal tentatively inside a partition, while
			// the majority times the proposer out and decides the round
			// differently, used to wedge forever once the cluster outran the
			// recovery window — catch-up refetched the true chain endlessly
			// while Append rejected it (1.19M wasted blocks in 90s). Fixed
			// by core's resyncTentativeSuffix; this scenario replays the
			// originally-generated schedule under the original seed.
			Name: "tentative-fork-catchup", Seed: 9,
			Workers: 2, Persist: true,
			Events: []Event{
				{Kind: EvPartition, At: 8 * time.Millisecond, Dur: 461 * time.Millisecond, Group: []int{0, 2, 3}},
				{Kind: EvRestart, At: 115 * time.Millisecond, Dur: 307 * time.Millisecond, Node: 0},
				{Kind: EvRestart, At: 169 * time.Millisecond, Dur: 781 * time.Millisecond, Node: 3},
				{Kind: EvIsolate, At: 516 * time.Millisecond, Dur: 439 * time.Millisecond, Node: 2},
			},
			Horizon: 4,
		},
		{
			// ω=4 scale-out shape (PR 6): partition a majority group away,
			// then restart the minority node of a persisted, compacting
			// four-pipeline cluster. Exercises the merge-point checkpoint
			// (all four worker logs anchored to one state capture), the
			// unified freshest-snapshot restore, and per-worker catch-up
			// running concurrently on every pipeline after the heal.
			Name: "multiworker-partition-restart", Seed: 108,
			Workers: 4, Persist: true, SnapshotEvery: 8, CatchUpBatch: 8,
			Events: []Event{
				{Kind: EvPartition, At: 0, Dur: 700 * time.Millisecond, Group: []int{0, 1, 2}},
				{Kind: EvRestart, At: 900 * time.Millisecond, Dur: 600 * time.Millisecond, Node: 3},
			},
			Warmup:  6,
			Horizon: 4,
		},
		{
			// Queryable-state shape (PR 7): a durable state backend on every
			// node, real client KV writes before chaos, a partition that
			// heals, and a node restarted from its durable-backend
			// checkpoint — after which a receipt-anchored Get must answer
			// with the committed value on every node and state snapshots
			// must agree byte-for-byte at equal applied positions (the
			// runner's Stateful oracles).
			Name: "durable-state-partition-restart", Seed: 109,
			Workers: 2, Stateful: true, SnapshotEvery: 8, CatchUpBatch: 8,
			Events: []Event{
				{Kind: EvPartition, At: 0, Dur: 700 * time.Millisecond, Group: []int{0, 1, 2}},
				{Kind: EvRestart, At: 900 * time.Millisecond, Dur: 600 * time.Millisecond, Node: 3},
			},
			Warmup:  6,
			Horizon: 4,
		},
		{
			// Stranded-node rescue (PR 8): node 3 is down long enough for the
			// aggressively-compacting survivors (SnapshotEvery 4 → retain 7)
			// to discard every round it still needs — range catch-up alone can
			// never close the gap. On rejoin the node must detect the hole
			// from firstAvail evidence, pull a verified snapshot transfer in
			// small chunks (SnapChunkBytes 256 forces a real multi-chunk
			// stream), install it, and range-sync the tail — with zero
			// operator intervention. The Stateful oracles then hold the
			// rescued node to the same receipt-anchored-read and
			// state-hash-agreement bar as everyone else.
			Name: "stranded-node-snapshot-rejoin", Seed: 110,
			Stateful: true, SnapshotEvery: 4, CatchUpBatch: 8, SnapChunkBytes: 256,
			Events: []Event{
				{Kind: EvRestart, At: 0, Dur: 3000 * time.Millisecond, Node: 3},
			},
			Warmup:  6,
			Horizon: 4,
		},
		{
			// The harsher ω=4 variant on the in-memory map backend: with no
			// durable state file, the restarted node's replica state comes
			// back exclusively through checkpoint restore and the snapshot
			// transfer — all four worker pipelines must install and resume
			// cleanly at their respective bases.
			Name: "stranded-node-snapshot-rejoin-map", Seed: 111,
			Workers: 4, Stateful: true, MapState: true,
			SnapshotEvery: 4, CatchUpBatch: 8, SnapChunkBytes: 256,
			Events: []Event{
				{Kind: EvRestart, At: 0, Dur: 3000 * time.Millisecond, Node: 3},
			},
			Warmup:  6,
			Horizon: 4,
		},
		{
			// Crash mid-transfer: the stranded node comes back, starts a
			// chunked snapshot transfer, and is killed again in the middle of
			// it. The second incarnation must renegotiate or resume and still
			// rejoin unaided — exercising transfer-state reconstruction after
			// the receiver itself (not just the donor) dies mid-stream.
			Name: "stranded-node-crash-mid-transfer", Seed: 112,
			Stateful: true, SnapshotEvery: 4, CatchUpBatch: 8, SnapChunkBytes: 256,
			Events: []Event{
				{Kind: EvRestart, At: 0, Dur: 3000 * time.Millisecond, Node: 3},
				{Kind: EvRestart, At: 3200 * time.Millisecond, Dur: 500 * time.Millisecond, Node: 3},
			},
			Warmup:  6,
			Horizon: 4,
		},
		{
			// A forger under a lossy epoch: node 2 corrupts every signature it
			// emits, so honest nodes must reject each of its envelopes while
			// drops, duplicates and jitter reorder the traffic around them,
			// and must never reject an honest signature verified beside a
			// forged one (a wrong rejection would stall WRB delivery and trip
			// the liveness oracle). Four worker instances keep several
			// headers, honest and forged, in flight at once.
			Name: "forger-lossy", Seed: 113,
			Forgers: []int{2},
			Workers: 4,
			Events: []Event{
				{Kind: EvLossy, At: 0, Dur: 900 * time.Millisecond, Drop: 0.1, Dup: 0.05, Jitter: 5 * time.Millisecond},
			},
			Horizon: 3,
		},
		{
			// Liveness over WAN round-trips: the geo latency model (§7.5
			// region RTTs at 0.1 scale — tens of milliseconds per link) with
			// node 1 isolated for 700 ms. WRB's timers must stretch to the
			// WAN without wedging, and the isolated node must catch up
			// after the heal. Four worker instances keep several rounds in
			// flight over the slow links.
			Name: "geo-wan-isolate", Seed: 114,
			Geo:     0.1,
			Workers: 4,
			Events: []Event{
				{Kind: EvIsolate, At: 0, Dur: 700 * time.Millisecond, Node: 1},
			},
			Horizon: 4,
		},
		{
			// Found by Explore (seed 57, n=7): an equivocator plus a long
			// isolation of one node exposed two distinct liveness wedges in
			// the lagging node once the cluster had outrun the retained
			// protocol state — (a) waitBody pulling forever for an
			// equivocator's orphaned variant body while the true definite
			// block sat in the catch-up buffer, and (b) runRecovery parked
			// waiting for n−f versions of an ancient recovery round that
			// peers (tracker already past it) will never send. Fixed by
			// waitBody's superseded-header bail-out and the recovery
			// version-wait escape hatch; replayed under the original seed.
			Name: "equivocator-isolation-catchup", Seed: 57,
			N: 7, Persist: true, SnapshotEvery: 8, CatchUpBatch: 8,
			Equivocators: []int{0},
			Events: []Event{
				{Kind: EvIsolate, At: 53 * time.Millisecond, Dur: 775 * time.Millisecond, Node: 2},
			},
			Horizon: 4,
		},
	}
}

// RegressionScenario returns the corpus entry with the given name; it
// panics on an unknown name (corpus names are compile-time constants in the
// tests that reference them).
func RegressionScenario(name string) Scenario {
	for _, sc := range RegressionScenarios() {
		if sc.Name == name {
			return sc
		}
	}
	panic(fmt.Sprintf("check: unknown regression scenario %q", name))
}
