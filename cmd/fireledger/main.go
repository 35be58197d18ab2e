// Command fireledger runs one FLO node of a multi-process TCP cluster.
//
// Every process is started with the same -addrs list and -seed; node
// identity is -id (the index into the address list). The shared seed
// deterministically derives the whole cluster's key set, which stands in
// for the PKI a permissioned deployment would provision out of band (keys
// derived this way are for demos and benchmarks only).
//
// Example — a local 4-node cluster (run each in its own terminal, any
// start order):
//
//	fireledger -id 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	fireledger -id 1 -addrs ...
//	fireledger -id 2 -addrs ...
//	fireledger -id 3 -addrs ...
//
// With -saturate σ the node fills every block with random σ-byte
// transactions (the paper's §7.2 load). With -data the definite chains
// persist and a restart resumes from them; -sync additionally makes every
// persisted block durable by group commit (one fsync per batch of blocks
// finalized while the previous fsync was in flight). With -client :port it
// serves the versioned client wire protocol of internal/clientapi on that
// port: fireledger.Dial / cmd/flclient sessions submit transactions, receive
// commit receipts, and stream the merged definite block sequence from a
// cursor. With -state map|durable the node additionally maintains a
// queryable ledger replica and serves receipt-anchored point gets, ordered
// range scans, and key watches over the same client port ("durable"
// requires -data; with -snapshot-every its snapshot rides in the chain
// checkpoints, so restarts resume the state too).
//
// The binary exposes deployment settings only: signature-verification
// batching paces itself from the measured arrival rate, and the gossip and
// body-compression extensions are reachable from cmd/flbench (-exp
// ext-gossip, ext-compression), not from here.
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	fireledger "repro"
	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	var (
		id         = flag.Int("id", 0, "this node's index into -addrs")
		addrs      = flag.String("addrs", "", "comma-separated host:port list, one per node (required)")
		seed       = flag.String("seed", "fireledger-demo", "shared key-derivation seed (demo PKI)")
		workers    = flag.Int("workers", 1, "FLO workers (the paper's omega)")
		batch      = flag.Int("batch", 100, "transactions per block (beta)")
		saturate   = flag.Int("saturate", 0, "fill blocks with random transactions of this size (sigma); 0 = client load only")
		clientAddr = flag.String("client", "", "listen address for flclient submissions (optional)")
		dataDir    = flag.String("data", "", "directory for the persistent chain logs (optional; enables restart recovery)")
		syncWrites = flag.Bool("sync", false, "make persisted blocks durable by group commit: one fsync per batch of blocks (requires -data)")
		catchBatch = flag.Int("catchup-batch", 64, "blocks per streaming catch-up batch; also the lag threshold that switches a node from per-round pulls to range sync")
		snapEvery  = flag.Uint64("snapshot-every", 0, "checkpoint and compact the chain log every N definite rounds (requires -data; 0 disables)")
		state      = flag.String("state", "", "queryable ledger state backend: 'map' (in-memory) or 'durable' (requires -data); empty serves no state reads")
		statsEvery = flag.Duration("stats", 5*time.Second, "stats print interval")
		exclude    = flag.Bool("exclude-convicted", false, "convict equivocators on-chain and remove them from the proposer rotation (must match across the cluster)")
	)
	flag.Parse()

	list := strings.Split(*addrs, ",")
	if *addrs == "" || len(list) < 4 {
		log.Fatal("need -addrs with at least 4 nodes (f >= 1 requires n >= 4)")
	}
	if *id < 0 || *id >= len(list) {
		log.Fatalf("-id %d out of range for %d addrs", *id, len(list))
	}

	ks, err := flcrypto.GenerateKeySet(len(list), flcrypto.Ed25519, flcrypto.NewDeterministicReader(*seed))
	if err != nil {
		log.Fatalf("derive keys: %v", err)
	}

	ep, err := transport.NewTCPEndpoint(transport.TCPConfig{
		ID:    flcrypto.NodeID(*id),
		Addrs: list,
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	var backend fireledger.StateBackend
	switch *state {
	case "":
	case "map":
		backend = fireledger.NewMapState()
	case "durable":
		if *dataDir == "" {
			log.Fatal("-state durable requires -data")
		}
		b, err := fireledger.OpenDurableState(filepath.Join(*dataDir, "state"))
		if err != nil {
			log.Fatalf("open state backend: %v", err)
		}
		backend = b
		if closer, ok := backend.(io.Closer); ok {
			defer closer.Close()
		}
	default:
		log.Fatalf("unknown -state %q (want 'map' or 'durable')", *state)
	}

	cfg := fireledger.Config{
		Endpoint:         ep,
		Registry:         ks.Registry,
		Priv:             ks.Privs[*id],
		Workers:          *workers,
		BatchSize:        *batch,
		DataDir:          *dataDir,
		SyncWrites:       *syncWrites,
		CatchUpBatch:     *catchBatch,
		SnapshotEvery:    *snapEvery,
		State:            backend,
		ExcludeConvicted: *exclude,
		OnConviction: func(w uint32, rec fireledger.ConvictionRecord) {
			log.Printf("worker %d: node %d convicted of equivocation (offense round %d, on-chain at round %d)",
				w, rec.Culprit, rec.Proof.Round(), rec.ChainRound)
		},
		OnSnapshotInstall: func(w uint32, base uint64) {
			log.Printf("worker %d: installed transferred snapshot at base %d (peers had compacted past this node's tail)",
				w, base)
		},
	}
	if *saturate > 0 {
		cfg.Source = workload.Saturating(flcrypto.NodeID(*id), *saturate)
	}
	node, err := fireledger.NewNode(cfg)
	if err != nil {
		log.Fatalf("assemble node: %v", err)
	}
	node.Start()
	defer node.Stop()
	log.Printf("node %d up on %s (n=%d, workers=%d, batch=%d, saturate=%d, state=%s)",
		*id, list[*id], len(list), *workers, *batch, *saturate, *state)

	var srv *clientapi.Server
	if *clientAddr != "" {
		srv = clientapi.NewServer(node, clientapi.ServerOptions{Logf: log.Printf})
		if err := srv.Listen(*clientAddr); err != nil {
			log.Fatalf("client API: %v", err)
		}
		defer srv.Close()
		log.Printf("serving client API v%d on %s", clientapi.Version, srv.Addr())
	}

	go func() {
		var lastTxs, lastBlocks uint64
		var lastFan clientapi.FanoutStats
		for range time.Tick(*statsEvery) {
			txs, blocks := node.DeliveredTxs(), node.DeliveredBlocks()
			secs := statsEvery.Seconds()
			log.Printf("tps=%.0f bps=%.0f (total: %d txs, %d blocks)",
				float64(txs-lastTxs)/secs, float64(blocks-lastBlocks)/secs, txs, blocks)
			lastTxs, lastBlocks = txs, blocks
			if srv == nil {
				continue
			}
			fs := srv.Fanout()
			// Fan-out counters only when subscribers are (or were) attached:
			// frames shared vs encoded is the hub's encode-once ratio.
			if fs.FramesShared == 0 && fs.LiveSubs+fs.LaggingSubs+fs.CohortSubs == 0 {
				continue
			}
			log.Printf("fanout: subs=%d/%d/%d (live/lagging/cohort) shared=%d encoded=%d replays=%d demotions=%d overflow-disconnects=%d",
				fs.LiveSubs, fs.LaggingSubs, fs.CohortSubs,
				fs.FramesShared-lastFan.FramesShared, fs.FramesEncoded-lastFan.FramesEncoded,
				fs.CohortReplays-lastFan.CohortReplays, fs.Demotions-lastFan.Demotions,
				fs.OverflowDisconnects-lastFan.OverflowDisconnects)
			lastFan = fs
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
}
