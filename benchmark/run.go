package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	fireledger "repro"
	"repro/benchmark/wire"
)

// Client identities: the load sessions, then one-off verification sessions.
const (
	loadClientBase   = 1000
	verifyClientBase = 2000
)

// measure is one reported metric value.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // sample count of a timing
}

// outcome is what one run of one workload produced.
type outcome struct {
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]measure
	Problems   []string
	GoMaxProcs []int64 // of the node processes
	spans      []span  // traced pass: the sampled writes' span trees
}

// pass is everything one cluster's worth of load produced, before it is
// boiled down to metrics.
type pass struct {
	w        workload
	window   time.Duration
	winStart time.Duration // offsets from epoch
	winEnd   time.Duration
	epoch    time.Time

	sessions []*loadSession
	reads    []read
	setups   []float64 // seconds, one per cluster launch

	// Node counters over the window, one delta per node (a restarted node's
	// two lives added up), plus node 0's totals at the end of the window.
	deltas  []wire.Stats
	end0    wire.Stats
	elapsed time.Duration // between the two counter snapshots
	selfCPU time.Duration // the load generator's own CPU over the window
	procs   []int64

	// Fault schedule (crash1), as offsets from epoch; zero when unused.
	killAt, restartAt, rejoinedAt time.Duration
	catchup                       wire.Stats // node 3's counters after its restart

	problems []string
	repeats  int         // writes node 0's stream carried more than once
	traces   []nodeTrace // traced pass, serving nodes
}

// statsDelta returns b−a for every counter of b.
func statsDelta(a, b wire.Stats) wire.Stats {
	d := make(wire.Stats, len(b))
	for k, v := range b {
		d[k] = v - a[k]
	}
	return d
}

func statsSum(list ...wire.Stats) wire.Stats {
	sum := wire.Stats{}
	for _, s := range list {
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum
}

// runPass launches a fresh cluster for w in dir, drives the load for window
// after the warm-up, verifies the outputs and stops the cluster. setups is
// how many times the cluster is launched (all but the last only to time
// set-up).
func runPass(bin, dir string, w workload, seed int64, window time.Duration, traced bool, setups int) (*pass, error) {
	p := &pass{w: w, window: window, winStart: warmup, winEnd: warmup + window}

	var c *cluster
	var ss []fireledger.Session
	for round := 0; round < setups; round++ {
		cdir := filepath.Join(dir, fmt.Sprintf("cluster%d", round))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if c, err = launchCluster(bin, cdir, w, traced); err != nil {
			return nil, err
		}
		if ss, err = dialSessions(c, loadClientBase); err == nil {
			err = probe(ss)
		}
		if err != nil {
			c.destroy()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		if round < setups-1 {
			for _, s := range ss {
				s.Close()
			}
			c.destroy()
			os.RemoveAll(cdir)
		}
	}
	// On every way out: sessions first, then the nodes, then the background
	// streams, which end at once when their node is gone.
	var live, livePeer *liveStream
	defer func() {
		for _, s := range ss {
			s.Close()
		}
		c.stop()
		for _, l := range []*liveStream{live, livePeer} {
			if l != nil {
				l.finish(0)
			}
		}
	}()

	// The load.
	p.epoch = time.Now()
	var jobs chan readJob
	if w.State {
		jobs = make(chan readJob, 4096) // a full queue skips reads instead of stalling receipts
	}
	for i, sess := range ss {
		ls := &loadSession{
			clientID: loadClientBase + uint64(i), sess: sess, w: w,
			gen:    newPayloads(sessionSeed(seed, i), i, w.KVKeys),
			epoch:  p.epoch,
			stopAt: p.winEnd,
			traced: traced,
		}
		if !w.closedLoop() {
			ls.due = poissonSchedule(sessionSeed(seed, i)+1, w.Rate, p.winEnd)
		}
		if i == 0 && jobs != nil {
			ls.reads = jobs
		}
		p.sessions = append(p.sessions, ls)
	}
	var load, readWG sync.WaitGroup
	for _, ls := range p.sessions {
		load.Add(1)
		go func() {
			defer load.Done()
			ls.run()
		}()
	}
	if jobs != nil {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			p.reads = runReaders(ss[1], p.epoch, jobs)
		}()
	}

	// Node 0 streams the merged order live over a connection of its own for
	// the whole run, and node 1 its first blocks for the cross-node check. A
	// replay after the drain cannot serve: where checkpoints truncate the log
	// (sat512, kv4) empty rounds keep advancing it, and the tail is gone
	// before a replay can ask for it.
	live = followLive(c.client[0], verifyClientBase, w.Workers, ^uint64(0))
	livePeer = followLive(c.client[1], verifyClientBase+2, w.Workers, verifyBlocks-1)

	sleepUntil := func(at time.Duration) { time.Sleep(at - time.Since(p.epoch)) }

	sleepUntil(p.winStart)
	begin, err := c.statsAll()
	if err != nil {
		return nil, err
	}
	cpu0 := wire.CPUNs()

	var preKill wire.Stats
	if w.Crash {
		sleepUntil(p.winStart + window*2/7)
		if preKill, err = c.stats(3); err != nil {
			return nil, err
		}
		c.kill(3)
		p.killAt = time.Since(p.epoch)
		sleepUntil(p.winStart + window*4/7)
		ref, err := c.stats(0)
		if err != nil {
			return nil, err
		}
		if err := c.restart(3); err != nil {
			return nil, err
		}
		p.restartAt = time.Since(p.epoch)
		// Rejoined: node 3's definite tips reach where node 0 stood at the
		// restart. Polled at 20 Hz over the node's control pipe.
		for time.Since(p.epoch) < p.winEnd-100*time.Millisecond {
			s, err := c.stats(3)
			if err != nil {
				return nil, err
			}
			if s[wire.CoreDefinite] >= ref[wire.CoreDefinite] {
				p.rejoinedAt = time.Since(p.epoch)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	sleepUntil(p.winEnd)
	end, err := c.statsAll()
	if err != nil {
		return nil, err
	}
	p.selfCPU = time.Duration(wire.CPUNs() - cpu0)
	p.elapsed = time.Duration(end[0][wire.UnixNano] - begin[0][wire.UnixNano])
	p.end0 = end[0]
	for i := range end {
		p.procs = append(p.procs, end[i][wire.ProcMaxProcs])
		if w.Crash && i == 3 {
			p.deltas = append(p.deltas, statsSum(statsDelta(begin[i], preKill), end[i]))
			p.catchup = end[i]
			continue
		}
		p.deltas = append(p.deltas, statsDelta(begin[i], end[i]))
	}

	// Drain: every outstanding write resolves, fails or times out.
	load.Wait()
	if jobs != nil {
		close(jobs)
		readWG.Wait()
	}
	if err := c.died(); err != nil {
		return nil, err
	}

	p.verify(c, live, livePeer)

	for _, s := range ss {
		s.Close()
	}
	ss = nil
	c.stop()
	if traced {
		for i := 0; i < sessions; i++ {
			nt, err := readNodeTrace(c.tracePath(i))
			if err != nil {
				return nil, err
			}
			p.traces = append(p.traces, nt)
		}
	}
	return p, nil
}

// liveStream follows a node's merged stream from genesis in the background
// until finish names the last position wanted.
type liveStream struct {
	wg     sync.WaitGroup
	limit  atomic.Uint64
	blocks []streamBlock
	err    error
}

func followLive(addr string, clientID uint64, workers int, limit uint64) *liveStream {
	l := &liveStream{}
	l.limit.Store(limit)
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*verifyTimeout)
		defer cancel()
		l.blocks, l.err = streamRange(ctx, addr, clientID, workers, 0, 0, &l.limit)
	}()
	return l
}

// finish lets the stream end at position top and returns what it collected.
// A second call only waits.
func (l *liveStream) finish(top uint64) ([]streamBlock, error) {
	l.limit.CompareAndSwap(^uint64(0), top)
	l.wg.Wait()
	return l.blocks, l.err
}

// verify runs the output checks of the pass and records what they find.
func (p *pass) verify(c *cluster, live, livePeer *liveStream) {
	w := p.w
	l := newLedger(w.Workers, p.sessions)
	top, ok := l.maxReceiptPos()
	if !ok {
		p.problems = append(p.problems, "no write was committed")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), verifyTimeout)
	defer cancel()
	note := func(err error) {
		if err != nil {
			p.problems = append(p.problems, err.Error())
		}
	}

	// Node 0's stream of the whole run against the receipts; then nodes 0
	// and 1 must agree on the hashes of the first blocks.
	node0, err := live.finish(top)
	note(err)
	peer, err := livePeer.finish(0)
	note(err)
	problems, repeats := l.checkBlocks("node 0 stream", node0)
	p.problems = append(p.problems, problems...)
	p.repeats = repeats
	p.problems = append(p.problems, sameHashes(node0, peer)...)

	if w.State {
		p.checkReads()
		bad, first := 0, ""
		for _, r := range p.reads {
			if r.fault != "" {
				if bad++; first == "" {
					first = r.fault
				}
			}
		}
		if bad > 0 {
			p.problems = append(p.problems, fmt.Sprintf("%d of %d tokened reads failed; the first: %s", bad, len(p.reads), first))
		}
		note(p.compareKeys(ctx, c))
	}

	if w.Crash {
		// No acked write may be missing from what the restarted node serves.
		blocks, err := streamRange(ctx, c.client[3], verifyClientBase+3, w.Workers, 0, top, nil)
		note(err)
		if err == nil {
			problems, _ := l.checkBlocks("restarted node 3 stream", blocks)
			p.problems = append(p.problems, problems...)
		}
	}
}

// checkReads judges the values the tokened reads returned. A read at write
// w's token sees the replica's state at or after w, so it may return what w
// set or what a write of the same key that the ledger orders after w set.
// That is not always a later write of the session: one parked after a nil
// round can commit seconds after its successor on the key. A read that
// returned anything else of its key gets a fault. The writes of one key are
// w, w±keys, w±2·keys, … in the session's payload sequence.
func (p *pass) checkReads() {
	s := p.sessions[0] // the session whose receipts are read back
	at := make(map[int]uint64, len(s.writes))
	for i := range s.writes {
		if w := &s.writes[i]; w.done > 0 && !w.failed {
			at[w.idx] = position(w.receipt.Worker, w.receipt.Round, p.w.Workers)
		}
	}
	for i := range p.reads {
		r := &p.reads[i]
		if r.fault != "" || r.got == r.want {
			continue
		}
		posGot, known := at[r.got] // unknown: a write that timed out may have been committed all the same
		switch {
		case (r.got-r.want)%p.w.KVKeys != 0:
			r.fault = fmt.Sprintf("at the token of write %d, the value of write %d, which set another key", r.want, r.got)
		case known && posGot < at[r.want]:
			r.fault = fmt.Sprintf("at the token of write %d (position %d), the value of write %d, ordered before it (position %d)", r.want, at[r.want], r.got, posGot)
		}
	}
}

// compareKeys reads sampled keys of both sessions from node 0 and node 1 at
// the last receipt's token and requires equal answers.
func (p *pass) compareKeys(ctx context.Context, c *cluster) error {
	var nodes [2]fireledger.Session
	for i := range nodes {
		s, err := fireledger.Dial(c.client[i], verifyClientBase+10+uint64(i))
		if err != nil {
			return fmt.Errorf("compare keys: %w", err)
		}
		defer s.Close()
		nodes[i] = s
	}
	// Both replicas must cover the last receipts of both sessions first.
	for _, s := range p.sessions {
		for i := len(s.writes) - 1; i >= 0; i-- {
			if w := &s.writes[i]; w.done > 0 && !w.failed {
				for _, n := range nodes {
					if _, _, err := n.Get(ctx, "", w.receipt.Token()); err != nil {
						return fmt.Errorf("compare keys: %w", err)
					}
				}
				break
			}
		}
	}
	for sess := 0; sess < sessions; sess++ {
		for k := 0; k < p.w.KVKeys; k += p.w.KVKeys / 64 {
			key := kvKey(sess, int32(k))
			v0, ok0, err0 := nodes[0].Get(ctx, key, fireledger.ReadToken{})
			v1, ok1, err1 := nodes[1].Get(ctx, key, fireledger.ReadToken{})
			if err0 != nil || err1 != nil {
				return fmt.Errorf("compare keys: %v %v", err0, err1)
			}
			if ok0 != ok1 || string(v0) != string(v1) {
				return fmt.Errorf("nodes 0 and 1 disagree on key %s after the drain", key)
			}
		}
	}
	return nil
}
