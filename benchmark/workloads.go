package main

import "time"

// Rig constants shared by every workload (see README.md).
const (
	clusterSize = 4   // n=4, f=1: the minimum; there is no single-node mode
	payloadSize = 512 // σ
	sessions    = 2   // one load connection per core of the 2-core box

	warmup = 3 * time.Second
	// writeTimeout: a write with no receipt this long after it was due has
	// failed. It lies between the second and the third expiry of the pool's
	// 5 s lease: a block parked twice by nil rounds commits 10.1 s after it
	// was due, and at a timeout of 10 s that made one kv4 run in twenty
	// report a block's worth of failed writes.
	writeTimeout = 12500 * time.Millisecond
	setupRounds  = 7    // cluster launches per run; setup_s is their median
	readEvery    = 8    // kv4: every 8th receipt of session 0 is read back
	verifyBlocks = 1000 // merged positions checked at each end of a replay
)

// workload is one named traffic mix and the cluster it runs against. Names
// are fixed: later issues cite them.
type workload struct {
	Name string
	Why  string

	// Load. Closed loop keeps InFlight writes outstanding per session; open
	// loop submits on a seeded Poisson schedule at Rate writes/s per session
	// and times each write from its due time.
	InFlight int
	Rate     float64
	KVKeys   int // >0: EncodeSet payloads over this many keys per session

	// Cluster.
	Workers       int // ω
	Batch         int // β
	Disk          bool
	State         bool
	SnapshotEvery uint64

	// Crash, when set, SIGKILLs node 3 at 2/7 of the window and restarts it
	// on its data dir at 4/7 (10 s and 20 s of the reference 35 s window).
	Crash bool

	// TraceSample: the traced pass follows writes whose seq is a multiple.
	TraceSample uint64
}

func (w workload) closedLoop() bool { return w.InFlight > 0 }

var workloads = []workload{
	{
		Name: "sat512",
		Why: "closed loop at saturation, 2x1024 callers, blocks of up to 1000 txs: the byte path (types codec, hashing, " +
			"flcrypto, transport, clientapi framing) does the work; a chain log so checkpoints bound memory",
		InFlight: 1024, Workers: 1, Batch: 1000, Disk: true, SnapshotEvery: 500, TraceSample: 64,
	},
	{
		Name: "rate2k",
		Why: "open loop at 2000 tx/s, far below saturation: latency is proposer-turn wait plus WRB/OBBC steps and " +
			"f+1 depth (flo pool, core, wrb, obbc); a codec or crypto win should not move it",
		Rate: 1000, Workers: 1, Batch: 100, TraceSample: 1,
	},
	{
		Name: "kv4",
		Why: "closed loop of KV sets over four workers with durable state, checkpoints and log appends, plus " +
			"cross-node read-your-writes: merger, statemachine and store do what sat512 leaves out",
		InFlight: 256, KVKeys: 5000, Workers: 4, Batch: 100, Disk: true, State: true, SnapshotEvery: 1000, TraceSample: 8,
	},
	{
		Name: "crash1",
		Why: "rate2k's load with node 3 killed and restarted on its data dir: the one workload off the fast path " +
			"(timer expiry, failure detection, log replay, range catch-up); open loop counts writes due meanwhile",
		Rate: 1000, Workers: 1, Batch: 100, Disk: true, Crash: true, TraceSample: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
