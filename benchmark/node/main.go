// Command node is the benchmark's cluster member: cmd/fireledger's assembly
// (fireledger.NewNode + clientapi.NewServer over a TCP endpoint) with only
// the fields a workload names set, every other knob left at its flo default
// so a changed default shows up in the numbers. The runner drives it over
// stdin/stdout (see package wire) and it exits when stdin closes, so a dead
// runner never leaves nodes behind.
//
// With -trace the node additionally records spans from this file's side of
// each layer boundary: decorators around the transport endpoint, the state
// backend and the clientapi.Node handed to the server, plus Config.OnEvent
// and Config.Deliver hooks (see trace.go). Nothing inside the program is
// instrumented.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	fireledger "repro"
	"repro/benchmark/wire"
	"repro/internal/clientapi"
	"repro/internal/flcrypto"
	"repro/internal/transport"
	"repro/internal/types"
)

// keySeed derives the cluster's key set: every node computes the same one.
const keySeed = "fireledger-bench"

func main() {
	var (
		id        = flag.Int("id", 0, "this node's index into -addrs")
		addrs     = flag.String("addrs", "", "comma-separated transport host:port list, one per node")
		client    = flag.String("client", "", "client API listen address")
		workers   = flag.Int("workers", 1, "FLO workers (omega)")
		batch     = flag.Int("batch", 100, "transactions per block (beta)")
		dataDir   = flag.String("data", "", "chain log directory (no fsync)")
		snapEvery = flag.Uint64("snapshot-every", 0, "checkpoint every N definite rounds (requires -data)")
		state     = flag.Bool("state", false, "maintain the durable ledger state backend under -data")
		trace     = flag.Bool("trace", false, "record spans around the calls into each layer")
		sample    = flag.Uint64("trace-sample", 1, "trace writes whose seq is a multiple of this")
		traceOut  = flag.String("trace-out", "", "trace file written at exit (with -trace)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("node %d: ", *id))

	list := strings.Split(*addrs, ",")
	ks, err := flcrypto.GenerateKeySet(len(list), flcrypto.Ed25519, flcrypto.NewDeterministicReader(keySeed))
	if err != nil {
		log.Fatalf("derive keys: %v", err)
	}
	tcp, err := transport.NewTCPEndpoint(transport.TCPConfig{ID: flcrypto.NodeID(*id), Addrs: list})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	// Commands arrive on stdin; EOF or SIGTERM ends the process.
	cmds := make(chan string)
	go func() {
		defer close(cmds)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			cmds <- strings.TrimSpace(sc.Text())
		}
	}()
	var tr *tracer
	if *trace {
		tr = newTracer(*sample)
	}
	fmt.Println(wire.Listening)
	for started := false; !started; {
		cmd, ok := <-cmds
		if !ok {
			tcp.Close()
			return
		}
		started = cmd == wire.CmdStart // anything else before the start is not for this process yet
	}

	// The transport as the node sees it: the TCP endpoint, timed where the
	// pass is traced.
	var ep transport.Endpoint = tcp
	if tr != nil {
		ep = &tracedEndpoint{Endpoint: ep, tr: tr}
	}
	cfg := fireledger.Config{
		Endpoint:      ep,
		Registry:      ks.Registry,
		Priv:          ks.Privs[*id],
		Workers:       *workers,
		BatchSize:     *batch,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
	}
	if *state {
		backend, err := fireledger.OpenDurableState(filepath.Join(*dataDir, "state"))
		if err != nil {
			log.Fatalf("open state backend: %v", err)
		}
		defer backend.Close()
		cfg.State = backend
	}
	if tr != nil {
		if cfg.State != nil {
			cfg.State = &tracedState{StateBackend: cfg.State, tr: tr}
		}
		cfg.OnEvent = tr.onEvent
		cfg.Deliver = tr.onDeliver
	}
	node, err := fireledger.NewNode(cfg)
	if err != nil {
		log.Fatalf("assemble node: %v", err)
	}
	node.Start()

	var apiNode clientapi.Node = node
	if tr != nil {
		apiNode = &tracedNode{Node: node, tr: tr}
	}
	srv := clientapi.NewServer(apiNode, clientapi.ServerOptions{Logf: log.Printf})
	if err := srv.Listen(*client); err != nil {
		log.Fatalf("client API: %v", err)
	}
	fmt.Println(wire.ReadyPrefix + srv.Addr())

	snapshot := func() wire.Stats {
		s := processStats()
		s[wire.FloBlocks] = int64(node.DeliveredBlocks())
		s[wire.FloTxs] = int64(node.DeliveredTxs())
		for w := 0; w < node.Workers(); w++ {
			s[wire.CoreDefinite] += int64(node.Worker(w).Chain().Definite())
			m := node.Worker(w).Metrics()
			s[wire.CoreNilRounds] += int64(m.NilRounds.Load())
			s[wire.CoreRecoveries] += int64(m.Recoveries.Load())
			s[wire.CoreSignOps] += int64(m.SignOps.Load())
			s[wire.CoreRangeReqs] += int64(m.CatchUpRangeReqs.Load())
			s[wire.CoreBlockReqs] += int64(m.CatchUpBlockReqs.Load())
			o := node.OBBCMetrics(w)
			s[wire.OBBCFast] += int64(o.FastDecisions.Load())
			s[wire.OBBCFallback] += int64(o.FallbackDecisions.Load())
		}
		hits, misses := node.VerifyPool().Stats()
		bs := node.VerifyPool().BatchStats()
		s[wire.VerifyHits], s[wire.VerifyMisses] = int64(hits), int64(misses)
		s[wire.VerifyBatches], s[wire.VerifyBatched] = int64(bs.Batches), int64(bs.BatchedSigs)
		s[wire.VerifySingles], s[wire.VerifyHoldNs] = int64(bs.Singles), int64(bs.Waited)
		gets, reuses := types.PoolStats()
		s[wire.EncGets], s[wire.EncReuses] = int64(gets), int64(reuses)
		fan := srv.Fanout()
		s[wire.HubFramesEncoded] = int64(fan.FramesEncoded)
		s[wire.HubFramesShared] = int64(fan.FramesShared)
		s[wire.HubDemotions] = int64(fan.Demotions)
		fl := tcp.FlushStats()
		s[wire.FlushBatches], s[wire.FlushFrames] = int64(fl.Batches), int64(fl.Items)
		s[wire.SendDrops] = int64(tcp.TotalSendDrops())
		if *dataDir != "" {
			s[wire.DiskBytes] = dirBytes(*dataDir)
		}
		if tr != nil {
			tr.addCounters(s)
		}
		return s
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
loop:
	for {
		select {
		case cmd, ok := <-cmds:
			if !ok {
				break loop
			}
			if cmd != wire.CmdStats {
				continue
			}
			out, _ := json.Marshal(snapshot()) // a map of int64 cannot fail to marshal
			fmt.Println(wire.StatsPrefix + string(out))
		case <-sig:
			break loop
		}
	}

	srv.Close()
	node.Stop()
	if tr != nil && *traceOut != "" {
		if err := tr.writeFile(*traceOut); err != nil {
			log.Fatalf("write trace: %v", err)
		}
	}
}

// processStats reads this process's CPU, memory and GC totals.
func processStats() wire.Stats {
	s := wire.Stats{wire.UnixNano: time.Now().UnixNano(), wire.ProcMaxProcs: int64(runtime.GOMAXPROCS(0)), wire.ProcCPUNs: wire.CPUNs()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s[wire.ProcAllocBytes] = int64(ms.TotalAlloc)
	s[wire.ProcGCPauseNs] = int64(ms.PauseTotalNs)
	s[wire.ProcRSSBytes] = rssBytes()
	return s
}

// rssBytes reads the resident set size from /proc (0 where unavailable).
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	// Files vanish mid-walk when a checkpoint swaps the log; skip them.
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
