// Package wire is the contract between the benchmark runner and its
// benchmark/node child processes: the line protocol on the node's
// stdin/stdout, the cumulative counter snapshot a node answers with, and the
// trace records a traced node writes at exit.
//
// Line protocol. The node binds its transport port, prints "LISTENING" and
// waits for a "start" line: the runner releases a cluster only when every
// member listens, so that no first dial hits a closed port and waits out the
// transport's 500 ms retry (a race that made set-up time bimodal). The node
// then assembles and starts, and prints "READY <client-addr>" once it serves
// clients. For every "stats" line on stdin it prints "STATS <json Stats>".
// On stdin EOF (the runner died or closed the pipe) or SIGTERM it shuts
// down, writes its trace file when tracing, and exits 0.
package wire

import "syscall"

// Line prefixes of the node's stdout protocol.
const (
	Listening   = "LISTENING"
	ReadyPrefix = "READY "
	StatsPrefix = "STATS "
	CmdStart    = "start"
	CmdStats    = "stats"
)

// Stats is a cumulative counter snapshot, keyed by the names below. Counters
// only grow within one process, so the runner reports deltas between two
// snapshots. Keys a node cannot provide (decorator counters without -trace)
// are absent and read as zero.
type Stats map[string]int64

// Counter keys. The prefix is the module the counter is read from.
const (
	UnixNano = "unix_ns" // wall clock of the snapshot

	ProcCPUNs      = "proc.cpu_ns" // user+sys of this process (getrusage)
	ProcRSSBytes   = "proc.rss_bytes"
	ProcAllocBytes = "proc.alloc_bytes" // runtime.MemStats.TotalAlloc
	ProcGCPauseNs  = "proc.gc_pause_ns"
	ProcMaxProcs   = "proc.gomaxprocs"

	FloBlocks      = "flo.delivered_blocks"
	FloTxs         = "flo.delivered_txs"
	FloEmptyBlocks = "flo.empty_blocks" // traced only (Deliver hook)

	CoreDefinite     = "core.definite_rounds" // definite chain tips, summed over workers
	CoreNilRounds    = "core.nil_rounds"
	CoreRecoveries   = "core.recoveries"
	CoreSignOps      = "core.sign_ops"
	CoreRangeReqs    = "core.catchup_range_reqs"
	CoreBlockReqs    = "core.catchup_block_reqs"
	OBBCFast         = "obbc.fast"
	OBBCFallback     = "obbc.fallback"
	VerifyHits       = "flcrypto.cache_hits"
	VerifyMisses     = "flcrypto.cache_misses"
	VerifyBatches    = "flcrypto.batches"
	VerifyBatched    = "flcrypto.batched_sigs"
	VerifySingles    = "flcrypto.singles"
	VerifyHoldNs     = "flcrypto.hold_ns"
	EncGets          = "types.enc_gets"
	EncReuses        = "types.enc_reuses"
	HubFramesEncoded = "clientapi.hub.frames_encoded"
	HubFramesShared  = "clientapi.hub.frames_shared"
	HubDemotions     = "clientapi.hub.demotions"
	FlushBatches     = "transport.flush_batches"
	FlushFrames      = "transport.flush_frames"
	SendDrops        = "transport.send_drops"
	DiskBytes        = "store.disk_bytes" // size of the data dir

	// Decorator counters: present only with -trace.
	SendMsgs    = "transport.send_msgs" // one per destination
	SendBytes   = "transport.send_bytes"
	SendNs      = "transport.send_ns"
	SubmitCalls = "clientapi.submit_calls"
	SubmitNs    = "clientapi.submit_ns"
	TapBlocks   = "clientapi.tap_blocks"
	TapNs       = "clientapi.tap_ns"
	ApplyBlocks = "statemachine.apply_blocks"
	ApplyNs     = "statemachine.apply_ns"
	GetCalls    = "statemachine.get_calls"
	GetNs       = "statemachine.get_ns"
)

// BlockTrace is one merged delivery as a traced node saw it: the Fig 9
// events A–D of (Worker, Round) from Config.OnEvent (A and B exist only on
// the proposer), E when the merger handed the block on, and the interval the
// client API's delivery taps held the merger goroutine. Times are Unix
// nanoseconds; 0 means the event was not observed on this node.
type BlockTrace struct {
	Worker  uint32 `json:"w"`
	Round   uint64 `json:"r"`
	A       int64  `json:"a,omitempty"`
	B       int64  `json:"b,omitempty"`
	C       int64  `json:"c,omitempty"`
	D       int64  `json:"d,omitempty"`
	E       int64  `json:"e,omitempty"`        // state apply start, or Deliver entry without state
	Deliver int64  `json:"deliver,omitempty"`  // Config.Deliver entry (after state apply)
	TapDone int64  `json:"tap_done,omitempty"` // last SubscribeDeliver callback returned
}

// TxTrace is one sampled write as its serving node saw it: when the client
// API handed it to the node, and the block that carried it.
type TxTrace struct {
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
	Submit int64  `json:"submit"` // node Submit entry, Unix ns
	Worker uint32 `json:"w"`
	Round  uint64 `json:"r"`
}

// TraceLine is one JSON line of a node's trace file: exactly one field set.
type TraceLine struct {
	Block *BlockTrace `json:"block,omitempty"`
	Tx    *TxTrace    `json:"tx,omitempty"`
}

// CPUNs is the calling process's user+sys CPU time so far, in nanoseconds.
func CPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
