// Package fireledger is the public API of this FireLedger reproduction: a
// high-throughput permissioned blockchain consensus protocol (Buchnik &
// Friedman, VLDB 2020) together with the FLO orchestrator the paper
// evaluates.
//
// A node runs ω FireLedger worker instances over a shared transport. In the
// optimistic case each worker decides a block per communication step: the
// round's proposer broadcasts its block, every other node contributes a
// single unsigned bit (the OBBC vote), and the next proposer piggybacks its
// own block on that vote. The last f+1 blocks of each chain are tentative;
// a block is final (definite) at depth f+2. Byzantine equivocation is
// detected through the chain's hash links and repaired by an
// atomic-broadcast recovery procedure that all correct nodes run together.
//
// Applications talk to a node through the Session API — one interface with
// an in-process implementation (NewClient) and a remote one (Dial, speaking
// the versioned wire protocol of internal/clientapi). Every write resolves
// with a commit receipt naming the definite block it landed in, and Blocks
// streams the merged definite block sequence from a cursor, replaying
// history before following the live tail.
//
// Quick start (in-process cluster):
//
//	cluster, _ := fireledger.NewLocalCluster(4, nil)
//	cluster.Start()
//	defer cluster.Stop()
//
//	session, _ := fireledger.NewClient(cluster.Node(0), 1)
//	receipt, _ := session.SubmitWait(ctx, []byte("pay alice 10"))
//	fmt.Printf("final in block (worker %d, round %d, hash %x)\n",
//	    receipt.Worker, receipt.Round, receipt.BlockHash)
//
//	events, _ := session.Blocks(ctx, fireledger.Cursor{}) // from genesis
//	for ev := range events {
//	    // definite blocks, merged order, exactly once
//	}
//
// Against a TCP deployment the only change is the constructor:
// fireledger.Dial("host:port", clientID) returns the same Session. See
// examples/ for complete applications and cmd/fireledger for a TCP
// multi-process deployment.
package fireledger

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/flcrypto"
	"repro/internal/flo"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/types"
)

// Re-exported core types. Downstream code imports only this package.
type (
	// Transaction is a client operation: an opaque payload plus a
	// (Client, Seq) identity.
	Transaction = types.Transaction
	// Block is a decided batch of transactions with its signed header.
	Block = types.Block
	// BlockHeader is the consensus-path view of a block.
	BlockHeader = types.BlockHeader
	// Node is one FLO participant running ω FireLedger workers.
	Node = flo.Node
	// Config assembles a Node; see flo.Config for all knobs.
	Config = flo.Config
	// NodeID identifies a cluster member (0..n−1).
	NodeID = flcrypto.NodeID
	// Hash is a 32-byte content digest (block identities, receipts).
	Hash = flcrypto.Hash
	// KeySet bundles a test/simulation cluster's keys.
	KeySet = flcrypto.KeySet
	// Event is a per-round lifecycle event (block proposed, header
	// proposed, tentative, definite).
	Event = core.Event
	// LatencyModel shapes the simulated network's propagation delays.
	LatencyModel = transport.LatencyModel
	// Equivocation is a transferable proof that a proposer signed two
	// different headers for the same round — the "strong proof of which
	// node was the culprit" of paper §1 (see Config.ExcludeConvicted).
	Equivocation = evidence.Equivocation
	// ConvictionRecord is one culprit's entry in a node's evidence pool.
	ConvictionRecord = evidence.Record
	// StateBackend is the pluggable ledger-state store a node applies the
	// merged definite stream to (Config.State). Two implementations ship:
	// NewMapState (in-memory) and OpenDurableState (disk-backed value log
	// with an in-memory ordered index).
	StateBackend = statemachine.StateBackend
)

// Lifecycle events, re-exported for Deliver/OnEvent consumers.
const (
	EventBlockProposed  = core.EventBlockProposed
	EventHeaderProposed = core.EventHeaderProposed
	EventTentative      = core.EventTentative
	EventDefinite       = core.EventDefinite
)

// NewNode creates a FLO node from cfg. The caller supplies the transport
// endpoint (see NewLocalCluster for the in-process path and
// transport.NewTCPEndpoint for real deployments).
func NewNode(cfg Config) (*Node, error) { return flo.NewNode(cfg) }

// NewMapState returns the in-memory ledger-state backend: a hash map with
// an ordered view built per scan. State survives restarts only through
// chain checkpoints (Config.DataDir with Config.SnapshotEvery).
func NewMapState() StateBackend { return statemachine.NewKV() }

// OpenDurableState opens the disk-backed ledger-state backend in dir: values
// live in an append-only log (reads are one ReadAt), the ordered key index
// stays in memory, and durability rides in store checkpoints — on restart
// the node restores the freshest checkpoint into the backend and replays the
// definite blocks above it.
func OpenDurableState(dir string) (StateBackend, error) { return statemachine.OpenDurable(dir) }

// The KV command language the built-in backends apply; submit these
// payloads through a Session and read them back with Get/Scan/WatchKey.
// Transactions whose payload does not decode as a command are ignored by
// the state machine (the ledger remains a generic ordered log).
var (
	// EncodeSet writes value under key.
	EncodeSet = statemachine.EncodeSet
	// EncodeDel removes key.
	EncodeDel = statemachine.EncodeDel
	// EncodeAdd adjusts the 8-byte big-endian counter at key by delta
	// (missing key counts as zero).
	EncodeAdd = statemachine.EncodeAdd
	// EncodeTransfer atomically moves amount from one counter key to
	// another, rejected deterministically on every node if the source
	// balance is insufficient.
	EncodeTransfer = statemachine.EncodeTransfer
)

// Cluster is an in-process FireLedger deployment: n nodes over a simulated
// network. It is the entry point for examples, tests, and experimentation;
// production deployments wire Nodes over TCP instead (cmd/fireledger).
type Cluster struct {
	Keys  *KeySet
	Net   *transport.ChanNetwork
	nodes []*Node
}

// NewLocalCluster builds an n-node in-process cluster. tweak (optional) is
// invoked with each node's Config before the node is created — set Workers,
// BatchSize, Deliver callbacks, Byzantine behavior, and so on there.
func NewLocalCluster(n int, tweak func(i int, cfg *Config)) (*Cluster, error) {
	return NewLocalClusterOn(n, nil, tweak)
}

// NewLocalClusterOn is NewLocalCluster with an explicit latency model
// (transport.SingleDC(), transport.Geo(scale), or nil for zero latency).
func NewLocalClusterOn(n int, latency LatencyModel, tweak func(i int, cfg *Config)) (*Cluster, error) {
	if n < 4 {
		return nil, fmt.Errorf("fireledger: need n ≥ 4 for f ≥ 1 (got %d)", n)
	}
	ks, err := flcrypto.GenerateKeySet(n, flcrypto.Ed25519, nil)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Keys: ks,
		Net:  transport.NewChanNetwork(transport.ChanConfig{N: n, Latency: latency}),
	}
	for i := 0; i < n; i++ {
		cfg := Config{
			Endpoint: c.Net.Endpoint(NodeID(i)),
			Registry: ks.Registry,
			Priv:     ks.Privs[i],
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		node, err := flo.NewNode(cfg)
		if err != nil {
			c.Net.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Start launches every node.
func (c *Cluster) Start() {
	for _, node := range c.nodes {
		node.Start()
	}
}

// Stop shuts every node down and closes the network.
func (c *Cluster) Stop() {
	for _, node := range c.nodes {
		node.Stop()
	}
	c.Net.Close()
}

// Crash silences node i (fail-stop), for failure experiments.
func (c *Cluster) Crash(i int) { c.Net.Crash(NodeID(i)) }
