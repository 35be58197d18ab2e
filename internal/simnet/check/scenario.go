// Package check runs FireLedger clusters over the seeded simulation network
// (internal/simnet) and asserts the paper's global invariants while a
// randomized fault schedule plays out: agreement (no two honest nodes
// deliver conflicting definite blocks at the same (worker, round)), prefix
// consistency of each node's merged delivery order, durability across
// simulated restarts, and eventual liveness once faults heal. Explore
// samples thousands of such schedules from seeds, shrinks failing ones to a
// minimal repro, and prints the seed incantation that replays the failure.
package check

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// EventKind enumerates the fault-schedule primitives.
type EventKind int

const (
	// EvPartition cuts the links between Group and the rest of the cluster
	// for the event's window.
	EvPartition EventKind = iota
	// EvIsolate is EvPartition with a single-node group.
	EvIsolate
	// EvRestart stops Node at At and boots a fresh incarnation at At+Dur
	// (from its DataDir when the scenario persists, from scratch otherwise).
	EvRestart
	// EvRollingRestart restarts every node, staggered across the window —
	// the schedule shape that historically exposed the proposer-amnesia
	// equivocation (store.ProposalLog's reason to exist).
	EvRollingRestart
	// EvLossy opens a seeded per-message fault epoch: Drop/Dup
	// probabilities plus up to Jitter of extra delay on every link.
	EvLossy
)

func (k EventKind) String() string {
	switch k {
	case EvPartition:
		return "partition"
	case EvIsolate:
		return "isolate"
	case EvRestart:
		return "restart"
	case EvRollingRestart:
		return "rolling-restart"
	case EvLossy:
		return "lossy"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scheduled fault: it opens at At (relative to the start of the
// chaos phase) and closes — heals, restarts, or reverts — at At+Dur.
type Event struct {
	Kind EventKind
	At   time.Duration
	Dur  time.Duration
	// Node is the target of EvIsolate/EvRestart.
	Node int
	// Group is EvPartition's first side (the rest of the cluster is the
	// other side).
	Group []int
	// Drop/Dup/Jitter parameterize EvLossy.
	Drop   float64
	Dup    float64
	Jitter time.Duration
}

func (e Event) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @%s+%s", e.Kind, e.At.Round(time.Millisecond), e.Dur.Round(time.Millisecond))
	switch e.Kind {
	case EvPartition:
		fmt.Fprintf(&b, " group=%v", e.Group)
	case EvIsolate, EvRestart:
		fmt.Fprintf(&b, " node=%d", e.Node)
	case EvLossy:
		fmt.Fprintf(&b, " drop=%.2f dup=%.2f jitter=%s", e.Drop, e.Dup, e.Jitter.Round(time.Millisecond))
	}
	return b.String()
}

// Scenario is one complete simulated run: cluster shape, Byzantine cast,
// fault schedule, and the horizon the invariant checker drives it to. Every
// field is a pure function of the generator seed, so a scenario replays from
// its seed alone.
type Scenario struct {
	// Name tags curated regression scenarios ("" for generated ones).
	Name string
	// Seed reproduces the scenario (and seeds the SimNetwork).
	Seed int64
	// N is the cluster size; Workers is ω.
	N       int
	Workers int
	// BatchSize/TxSize shape the saturating load.
	BatchSize int
	TxSize    int
	// Persist gives each node a DataDir: restarts resume from disk and the
	// durability invariant is asserted across them.
	Persist bool
	// Stateful gives each node a durable queryable state backend
	// (flo.Config.State) and replaces the saturating load with client KV
	// submissions driven by the runner: a batch of Set commands lands before
	// chaos, and after the schedule heals the runner submits a probe write,
	// anchors a read to its commit receipt on every node — including ones
	// that restarted from a durable-backend checkpoint — and asserts
	// state-hash agreement across nodes at equal applied positions. Implies
	// Persist; SnapshotEvery defaults on so checkpoints carry state.
	Stateful bool
	// MapState, with Stateful, swaps the durable state backend for the
	// in-memory map backend (statemachine.KV): restarts then recover state
	// exclusively through the checkpoint-restore and snapshot-transfer
	// paths, with no backend file to lean on — the harsher variant of the
	// stranded-rejoin scenarios.
	MapState bool
	// SnapshotEvery enables log compaction (requires Persist).
	SnapshotEvery uint64
	// SnapChunkBytes caps snapshot-transfer chunks (flo.Config
	// passthrough); small values force real multi-chunk transfers in
	// scenarios that strand a node.
	SnapChunkBytes int
	// CatchUpBatch tunes the streaming range-sync threshold.
	CatchUpBatch int
	// Equivocators lists the §7.4.2 Byzantine split-proposers; together with
	// Forgers they must stay within the f budget.
	Equivocators []int
	// Forgers lists nodes whose every outgoing signature is corrupted: their
	// envelopes decode but fail verification at every honest peer. The shape
	// that exercises the batch-verification failure cone under faults —
	// forged envelopes land in real multi-signature batches and must be
	// bisected out without rejecting the honest signatures around them.
	// Forgers count as Byzantine for every oracle (they cannot rejoin:
	// peers drop even their catch-up traffic).
	Forgers []int
	// Geo, when positive, runs the cluster over the seeded geo-distributed
	// WAN latency model at that scale instead of the single-DC profile
	// (simnet.Config.Geo) — validates that adaptive batching tuned on
	// arrival rates holds on WAN round-trips, not just loopback.
	Geo float64
	// VerifyMinWait/VerifyMaxWait override the verify pools' batch-fill
	// pacing: the runner builds each node's pool from these
	// (flcrypto.PoolOptions) and injects it. Scenarios that assert batch
	// formation widen these: simulated latency jitter spreads a round's
	// envelope burst over a few milliseconds, more than the
	// production-default grace period bothers to bridge.
	VerifyMinWait time.Duration
	VerifyMaxWait time.Duration
	// Events is the fault schedule, executed relative to chaos start.
	Events []Event
	// Warmup is the definite-round count every node reaches before chaos.
	Warmup uint64
	// Horizon is how many further definite rounds every honest node must
	// reach after all faults heal — the liveness assertion.
	Horizon uint64
	// LivenessTimeout bounds the convergence wait (scaled default).
	LivenessTimeout time.Duration
}

// fill applies defaults in place.
func (s *Scenario) fill() {
	if s.Stateful {
		s.Persist = true
		if s.SnapshotEvery == 0 {
			s.SnapshotEvery = 8
		}
	}
	if s.N == 0 {
		s.N = 4
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.BatchSize == 0 {
		s.BatchSize = 5
	}
	if s.TxSize == 0 {
		s.TxSize = 32
	}
	if s.Warmup == 0 {
		s.Warmup = 2
	}
	if s.Horizon == 0 {
		s.Horizon = 4
	}
	if s.LivenessTimeout == 0 {
		s.LivenessTimeout = 90 * time.Second
		if len(s.Equivocators) > 0 || len(s.Forgers) > 0 {
			// Recovery rounds are an order of magnitude slower (a forger's
			// proposal slots all time out, like an equivocator's).
			s.LivenessTimeout = 150 * time.Second
		}
	}
}

// f returns the fault tolerance ⌊(n−1)/3⌋.
func (s *Scenario) f() int { return (s.N - 1) / 3 }

// byzantine reports whether node i is in the scenario's Byzantine cast
// (equivocator or forger).
func (s *Scenario) byzantine(i int) bool {
	return s.equivocator(i) || s.forger(i)
}

// equivocator reports whether node i is a split-proposer.
func (s *Scenario) equivocator(i int) bool {
	for _, b := range s.Equivocators {
		if b == i {
			return true
		}
	}
	return false
}

// forger reports whether node i corrupts its outgoing signatures.
func (s *Scenario) forger(i int) bool {
	for _, b := range s.Forgers {
		if b == i {
			return true
		}
	}
	return false
}

// byzantineCast lists every Byzantine node (for the checker's exemption
// list).
func (s *Scenario) byzantineCast() []int {
	out := append([]int(nil), s.Equivocators...)
	return append(out, s.Forgers...)
}

// honest lists the scenario's non-Byzantine nodes.
func (s *Scenario) honest() []int {
	out := make([]int, 0, s.N)
	for i := 0; i < s.N; i++ {
		if !s.byzantine(i) {
			out = append(out, i)
		}
	}
	return out
}

// chaosEnd is the instant (relative to chaos start) the last event closes.
func (s *Scenario) chaosEnd() time.Duration {
	var end time.Duration
	for _, e := range s.Events {
		if t := e.At + e.Dur; t > end {
			end = t
		}
	}
	return end
}

// String renders the scenario as the one-screen repro header printed with
// every failure.
func (s *Scenario) String() string {
	var b strings.Builder
	name := s.Name
	if name == "" {
		name = "generated"
	}
	fmt.Fprintf(&b, "scenario %s seed=%d n=%d ω=%d β=%d σ=%d persist=%v stateful=%v mapState=%v snapshotEvery=%d snapChunk=%d catchUpBatch=%d warmup=%d horizon=%d",
		name, s.Seed, s.N, s.Workers, s.BatchSize, s.TxSize, s.Persist, s.Stateful, s.MapState, s.SnapshotEvery, s.SnapChunkBytes, s.CatchUpBatch, s.Warmup, s.Horizon)
	if len(s.Equivocators) > 0 {
		fmt.Fprintf(&b, " equivocators=%v", s.Equivocators)
	}
	if len(s.Forgers) > 0 {
		fmt.Fprintf(&b, " forgers=%v", s.Forgers)
	}
	if s.Geo > 0 {
		fmt.Fprintf(&b, " geo=%g", s.Geo)
	}
	for _, e := range s.Events {
		fmt.Fprintf(&b, "\n  %s", e.describe())
	}
	return b.String()
}

// GenOpts bound the scenario generator.
type GenOpts struct {
	// N fixes the cluster size (default: drawn from {4, 7}).
	N int
	// MaxEvents caps the fault schedule length (default 4).
	MaxEvents int
	// NoByzantine removes equivocators from the menu (e.g. for quick
	// smoke corpora where recovery rounds would dominate the runtime).
	NoByzantine bool
}

// Generate derives a complete scenario from seed: every structural choice —
// cluster size, persistence, Byzantine cast, event kinds, windows, and
// probabilities — comes from one rand.Source, so Generate(seed) is a pure
// function and a failing seed replays its exact schedule.
func Generate(seed int64, opts GenOpts) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed, N: opts.N}
	if sc.N == 0 {
		sc.N = 4
		if rng.Intn(4) == 0 {
			sc.N = 7
		}
	}
	sc.Workers = 1
	if rng.Intn(5) == 0 {
		sc.Workers = 2
	}
	sc.Persist = rng.Intn(10) < 6
	if sc.Persist && rng.Intn(2) == 0 {
		sc.SnapshotEvery = 8
	}
	if rng.Intn(2) == 0 {
		sc.CatchUpBatch = 8
	}
	if !opts.NoByzantine && rng.Intn(5) == 0 {
		// One split-proposer, within the f budget (f ≥ 1 for n ≥ 4).
		sc.Equivocators = []int{rng.Intn(sc.N)}
	}

	maxEvents := opts.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 4
	}
	count := 1 + rng.Intn(maxEvents)
	// Structural windows (partitions, isolations) are laid out sequentially
	// so one link-filter epoch never tramples another; restarts and lossy
	// windows overlap them freely.
	structClock := time.Duration(0)
	for len(sc.Events) < count {
		ms := func(lo, hi int) time.Duration {
			return time.Duration(lo+rng.Intn(hi-lo)) * time.Millisecond
		}
		switch rng.Intn(6) {
		case 0: // split the cluster in two (neither side may finalize when < n−f)
			group := rng.Perm(sc.N)[:1+rng.Intn(sc.N-1)]
			sort.Ints(group)
			ev := Event{Kind: EvPartition, At: structClock + ms(0, 200), Dur: ms(250, 800), Group: group}
			structClock = ev.At + ev.Dur
			sc.Events = append(sc.Events, ev)
		case 1: // cut one node off
			ev := Event{Kind: EvIsolate, At: structClock + ms(0, 200), Dur: ms(250, 800), Node: rng.Intn(sc.N)}
			structClock = ev.At + ev.Dur
			sc.Events = append(sc.Events, ev)
		case 2: // crash/restart one node
			sc.Events = append(sc.Events, Event{
				Kind: EvRestart, At: ms(0, 700), Dur: ms(250, 900), Node: rng.Intn(sc.N),
			})
		case 3: // staggered full-cluster restart
			sc.Events = append(sc.Events, Event{
				Kind: EvRollingRestart, At: ms(0, 400), Dur: ms(400, 1100),
			})
		case 4, 5: // lossy epoch
			sc.Events = append(sc.Events, Event{
				Kind: EvLossy, At: ms(0, 500), Dur: ms(300, 1000),
				Drop:   0.05 + 0.25*rng.Float64(),
				Dup:    0.10 * rng.Float64(),
				Jitter: time.Duration(rng.Intn(15)) * time.Millisecond,
			})
		}
	}
	// Stateless restarts are only sound one at a time: a single amnesiac
	// node rejoins via catch-up and cannot form a conflicting quorum, but a
	// schedule that wipes several nodes (or the whole cluster, via a
	// rolling restart) steps outside the crash-recovery model — stable
	// storage is what makes "definite is forever" meaningful. Force
	// persistence for restart-heavy schedules so the durability and
	// agreement oracles stay sound.
	restarts := 0
	for _, e := range sc.Events {
		switch e.Kind {
		case EvRollingRestart:
			restarts += 2
		case EvRestart:
			restarts++
		}
	}
	if restarts >= 2 {
		sc.Persist = true
	}
	sort.SliceStable(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At })
	sc.fill()
	return sc
}
