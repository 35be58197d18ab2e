package flo

import (
	"fmt"

	"repro/internal/statemachine"
	"repro/internal/store"
)

// maybeCheckpoint runs on the delivery goroutine after each merged delivery:
// when the last worker's block completes a checkpoint cycle, it captures the
// application state once and checkpoints every worker's log — each snapshot
// anchored at that worker's last merged-delivered round, so restore knows
// exactly which replayed rounds the state does not cover. The capture is
// what has to happen here, at a consistent cut of the merged stream; the log
// side is a snapshot file and some unlinks per worker (store.Checkpoint).
// Round loops and commit stages keep running meanwhile. A checkpoint failure
// is sticky (CheckpointErr) and disables further checkpoints; delivery
// itself continues.
func (n *Node) maybeCheckpoint(w uint32, round uint64) {
	if n.retain == 0 || len(n.logs) != len(n.workers) {
		return
	}
	if int(w) != len(n.workers)-1 || round%n.cfg.SnapshotEvery != 0 {
		return
	}
	if n.ckptErr.Load() != nil {
		return
	}
	var state []byte
	stateful := n.stateRep != nil
	if stateful {
		state = n.stateRep.Snapshot()
	}
	for v, lg := range n.logs {
		stateRound := uint64(0)
		if stateful {
			stateRound = n.merger.lastDelivered[v] // ours to read: emit holds emitMu around deliver
		}
		snap, err := lg.Checkpoint(n.snapPaths[v], uint32(v), stateRound, state, n.retain, n.workers[v].Chain().HashAt)
		if err != nil {
			n.ckptErr.Store(fmt.Errorf("flo: worker %d checkpoint: %w", v, err))
			return
		}
		if snap == nil {
			continue // the anchor would not advance
		}
		// What was just written is what this node donates to stranded peers.
		n.snapMu.Lock()
		n.snapLive[v] = snap
		n.snapMu.Unlock()
		// Compact the live in-memory chain to the durable anchor: past this
		// point the retained window bounds what this node range-serves, and
		// a peer that fell below it is rescued by snapshot transfer.
		if err := n.workers[v].CompactTo(snap.BaseRound); err != nil {
			n.ckptErr.Store(fmt.Errorf("flo: worker %d compact: %w", v, err))
			return
		}
	}
}

// latestSnapshot returns worker w's freshest checkpoint for donation to a
// stranded peer (core.Instance.BindSnapshots provide hook).
func (n *Node) latestSnapshot(w uint32) (store.Snapshot, bool) {
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if int(w) >= len(n.snapLive) || n.snapLive[w] == nil {
		return store.Snapshot{}, false
	}
	return *n.snapLive[w], true
}

// installSnapshot atomically adopts a verified remote checkpoint for worker w
// — the final step of a snapshot transfer, after core/snapsync.go has hash-
// verified the payload and attested its chain anchor against f+1 peers. The
// ordering is crash-safe: the snapshot lands on disk first, then the log's
// segments are dropped for a new one at the new base, then the in-memory
// chain and replica jump forward. A crash between the first two steps leaves
// a fresh snapshot over old segments, which the next open unlinks or skims.
func (n *Node) installSnapshot(w uint32, snap store.Snapshot) error {
	n.installMu.Lock()
	defer n.installMu.Unlock()
	if int(w) >= len(n.workers) || snap.Instance != w {
		return fmt.Errorf("flo: snapshot for worker %d cannot install on worker %d", snap.Instance, w)
	}
	inst := n.workers[w]
	if tip := inst.Chain().Tip(); snap.BaseRound <= tip {
		return fmt.Errorf("flo: worker %d snapshot base %d not ahead of local tip %d", w, snap.BaseRound, tip)
	}

	// Decide what happens to the shared application replica before touching
	// anything: an install that would leave an unapplied hole between the
	// replica's position and the new chain base must fail outright (the
	// transfer loop renegotiates a fresher checkpoint).
	resetState := false
	var statePos map[uint32]uint64
	if len(snap.State) > 0 {
		if n.stateRep == nil {
			return fmt.Errorf("flo: worker %d snapshot carries application state but the node runs no managed State backend", w)
		}
		pos, err := statemachine.SnapshotPositions(snap.State)
		if err != nil {
			return fmt.Errorf("flo: worker %d snapshot state: %w", w, err)
		}
		fresher := true
		for v := range n.workers {
			if pos[uint32(v)] < n.stateRep.Position(uint32(v)) {
				fresher = false
				break
			}
		}
		switch {
		case fresher:
			resetState, statePos = true, pos
		case n.stateRep.Position(w) >= snap.BaseRound:
			// A concurrent install (another worker's transfer landed first)
			// already reset the replica to a fresher capture that covers this
			// worker beyond the new base: keep the fresher state, reset only
			// chain and log — idempotent delivery skips the overlap.
		default:
			return fmt.Errorf("flo: worker %d snapshot state (through round %d) is stale yet the replica (at %d) does not cover the new base %d",
				w, snap.StateRound, n.stateRep.Position(w), snap.BaseRound)
		}
	} else if n.stateRep != nil && n.stateRep.Position(w) < snap.BaseRound {
		return fmt.Errorf("flo: worker %d stateless snapshot would strand the replica at round %d below base %d",
			w, n.stateRep.Position(w), snap.BaseRound)
	}

	if len(n.logs) > int(w) {
		if err := store.WriteSnapshot(n.snapPaths[w], snap); err != nil {
			return fmt.Errorf("flo: worker %d snapshot install: %w", w, err)
		}
		if err := n.logs[w].ResetToBase(snap.BaseRound); err != nil {
			return fmt.Errorf("flo: worker %d log reset: %w", w, err)
		}
	}
	if err := inst.AdoptSnapshot(snap.BaseRound, snap.BaseHash); err != nil {
		return fmt.Errorf("flo: worker %d chain adopt: %w", w, err)
	}
	// Fence the merge point before announcing the install: pre-install
	// blocks of this worker still queued (or in flight to enqueue) must not
	// surface after consumers learn the stream resumes at base+1.
	n.merger.advanceBase(w, snap.BaseRound)
	if resetState {
		if err := n.stateRep.Reset(snap.State); err != nil {
			return fmt.Errorf("flo: worker %d state reset: %w", w, err)
		}
		// The installed state covers every worker through its captured
		// position; anchor the merged cursor there so the next checkpoint's
		// StateRound does not undershoot what the state already holds.
		for v, r := range statePos {
			n.merger.bump(v, r)
		}
	}
	n.snapMu.Lock()
	s := snap
	n.snapLive[w] = &s
	n.snapMu.Unlock()
	if n.cfg.OnSnapshotInstall != nil {
		n.cfg.OnSnapshotInstall(w, snap.BaseRound)
	}
	return nil
}

// CheckpointErr reports the first merge-point checkpoint failure, if any
// (checkpointing stops after it; the chain and delivery continue).
func (n *Node) CheckpointErr() error {
	if err, ok := n.ckptErr.Load().(error); ok {
		return err
	}
	return nil
}
