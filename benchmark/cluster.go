package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/benchmark/wire"
)

// buildNode compiles benchmark/node into dir and returns the binary's path.
// The go command's own cache makes every build after the first a no-op.
func buildNode(dir string) (string, error) {
	bin := filepath.Join(dir, "node")
	cmd := exec.Command("go", "build", "-o", bin, "repro/benchmark/node")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build benchmark/node: %v\n%s", err, out)
	}
	return bin, nil
}

// cluster is one fresh 4-node loopback-TCP deployment of separate node
// processes, living in its own directory (data dirs, stderr logs, traces).
type cluster struct {
	bin   string
	dir   string
	w     workload
	trace bool

	transport []string // node id → transport address
	client    []string // node id → client API address

	mu    sync.Mutex // guards nodes: a restart swaps an element
	nodes []*nodeProc
}

func (c *cluster) node(i int) *nodeProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// nodeProc is one node process and the runner's end of its line protocol.
type nodeProc struct {
	id  int
	cmd *exec.Cmd

	mu        sync.Mutex // one stats request at a time
	stdin     io.WriteCloser
	listening chan struct{}   // LISTENING seen, once
	ready     chan string     // the READY address, once
	stats     chan wire.Stats // one per answered request

	started  atomic.Bool   // released: it answers stats requests from here on
	exited   chan struct{} // closed when the process has been waited for
	exitErr  error
	expected bool // the runner stopped or killed it on purpose
}

// liveClusters are the clusters with running processes, for the signal
// handler: an interrupted runner must not leave nodes behind.
var (
	liveMu       sync.Mutex
	liveClusters = map[*cluster]bool{}
)

func killLiveClusters() {
	liveMu.Lock()
	defer liveMu.Unlock()
	for c := range liveClusters {
		for _, p := range c.nodes {
			if p != nil {
				p.cmd.Process.Kill()
			}
		}
	}
}

// reservePorts returns n loopback addresses the kernel just handed out for
// ":0" listeners. The listeners are closed before the nodes bind them.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// launchCluster spawns the nodes of w in dir and waits until each serves its
// client port.
func launchCluster(bin, dir string, w workload, trace bool) (*cluster, error) {
	addrs, err := reservePorts(2 * clusterSize)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		bin: bin, dir: dir, w: w, trace: trace,
		transport: addrs[:clusterSize],
		client:    addrs[clusterSize:],
		nodes:     make([]*nodeProc, clusterSize),
	}
	liveMu.Lock()
	liveClusters[c] = true
	liveMu.Unlock()
	for i := range c.nodes {
		if err := c.start(i); err != nil {
			c.stop()
			return nil, err
		}
	}
	for _, step := range []func(int) error{c.awaitListening, c.release, c.awaitReady} {
		for i := range c.nodes {
			if err := step(i); err != nil {
				c.stop()
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *cluster) tracePath(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("node%d.trace.jsonl", i))
}

// start spawns node i; a node restarted on the same directory appends to its
// stderr log and reopens its data dir.
func (c *cluster) start(i int) error {
	args := []string{
		"-id", strconv.Itoa(i),
		"-addrs", strings.Join(c.transport, ","),
		"-client", c.client[i],
		"-workers", strconv.Itoa(c.w.Workers),
		"-batch", strconv.Itoa(c.w.Batch),
	}
	if c.w.Disk {
		data := filepath.Join(c.dir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(data, 0o755); err != nil {
			return err
		}
		args = append(args, "-data", data)
		if c.w.SnapshotEvery > 0 {
			args = append(args, "-snapshot-every", strconv.FormatUint(c.w.SnapshotEvery, 10))
		}
		if c.w.State {
			args = append(args, "-state")
		}
	}
	if c.trace {
		args = append(args, "-trace", "-trace-sample", strconv.FormatUint(c.w.TraceSample, 10), "-trace-out", c.tracePath(i))
	}
	stderr, err := os.OpenFile(filepath.Join(c.dir, fmt.Sprintf("node%d.stderr", i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer stderr.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, args...)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start node %d: %w", i, err)
	}
	p := &nodeProc{
		id: i, cmd: cmd, stdin: stdin,
		listening: make(chan struct{}, 1),
		ready:     make(chan string, 1),
		stats:     make(chan wire.Stats, 1),
		exited:    make(chan struct{}),
	}
	c.mu.Lock()
	c.nodes[i] = p
	c.mu.Unlock()
	go p.read(stdout)
	return nil
}

// read parses the node's stdout until it closes, then reaps the process.
func (p *nodeProc) read(stdout io.Reader) {
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == wire.Listening:
			p.listening <- struct{}{}
		case strings.HasPrefix(line, wire.ReadyPrefix):
			p.ready <- strings.TrimPrefix(line, wire.ReadyPrefix)
		case strings.HasPrefix(line, wire.StatsPrefix):
			var s wire.Stats
			if json.Unmarshal([]byte(strings.TrimPrefix(line, wire.StatsPrefix)), &s) == nil {
				p.stats <- s
			}
		}
	}
	p.exitErr = p.cmd.Wait()
	close(p.exited)
}

// awaitListening waits until node i has bound its transport port.
func (c *cluster) awaitListening(i int) error {
	p := c.node(i)
	select {
	case <-p.listening:
		return nil
	case <-p.exited:
		return fmt.Errorf("node %d exited before listening: %v", i, p.exitErr)
	case <-time.After(20 * time.Second):
		return fmt.Errorf("node %d not listening after 20s", i)
	}
}

// release lets node i assemble and start.
func (c *cluster) release(i int) error {
	p := c.node(i)
	if _, err := io.WriteString(p.stdin, wire.CmdStart+"\n"); err != nil {
		return fmt.Errorf("start node %d: %w", i, err)
	}
	p.started.Store(true)
	return nil
}

func (c *cluster) awaitReady(i int) error {
	p := c.node(i)
	select {
	case <-p.ready:
		return nil
	case <-p.exited:
		return fmt.Errorf("node %d exited before serving clients: %v", i, p.exitErr)
	case <-time.After(20 * time.Second):
		return fmt.Errorf("node %d not ready after 20s", i)
	}
}

// stats asks node i for its cumulative counters.
func (c *cluster) stats(i int) (wire.Stats, error) {
	p := c.node(i)
	if !p.started.Load() {
		return nil, fmt.Errorf("node %d is not started", i)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, err := io.WriteString(p.stdin, wire.CmdStats+"\n"); err != nil {
		return nil, fmt.Errorf("node %d stats: %w", i, err)
	}
	select {
	case s := <-p.stats:
		return s, nil
	case <-p.exited:
		return nil, fmt.Errorf("node %d exited: %v", i, p.exitErr)
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("node %d stats: no answer in 10s", i)
	}
}

// statsAll asks every node for its counters, concurrently so that the answers
// are of one instant.
func (c *cluster) statsAll() ([]wire.Stats, error) {
	out := make([]wire.Stats, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = c.stats(i)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// kill SIGKILLs node i (the fault schedule) and waits for it to be reaped.
func (c *cluster) kill(i int) {
	p := c.node(i)
	p.expected = true
	p.cmd.Process.Kill()
	<-p.exited
}

// restart spawns node i again on its directory and waits for its client port.
func (c *cluster) restart(i int) error {
	if err := c.start(i); err != nil {
		return err
	}
	for _, step := range []func(int) error{c.awaitListening, c.release, c.awaitReady} {
		if err := step(i); err != nil {
			return err
		}
	}
	return nil
}

// died reports a node that exited outside the fault schedule.
func (c *cluster) died() error {
	for _, p := range c.nodes {
		if p == nil || p.expected {
			continue
		}
		select {
		case <-p.exited:
			return fmt.Errorf("node %d died outside the fault schedule: %v", p.id, p.exitErr)
		default:
		}
	}
	return nil
}

// stop ends every node: stdin EOF asks for a clean exit (trace files are
// written then); a node still alive after the grace period is killed. It
// returns only when every process has been reaped.
func (c *cluster) stop() {
	defer c.forget()
	for _, p := range c.nodes {
		if p != nil {
			p.expected = true
			p.stdin.Close()
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range c.nodes {
		if p == nil {
			continue
		}
		select {
		case <-p.exited:
		case <-time.After(time.Until(deadline)):
			p.cmd.Process.Kill()
			<-p.exited
		}
	}
}

// destroy kills every node at once: for clusters launched only to time their
// set-up, whose exit state nobody reads.
func (c *cluster) destroy() {
	defer c.forget()
	for _, p := range c.nodes {
		if p != nil {
			p.expected = true
			p.cmd.Process.Signal(syscall.SIGKILL)
		}
	}
	for _, p := range c.nodes {
		if p != nil {
			<-p.exited
		}
	}
}

func (c *cluster) forget() {
	liveMu.Lock()
	delete(liveClusters, c)
	liveMu.Unlock()
}
