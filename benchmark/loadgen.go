package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	fireledger "repro"
)

// write is one submitted transaction as the load generator saw it. Times are
// offsets from the run's epoch on the monotonic clock.
type write struct {
	seq     uint64
	idx     int           // index into the session's payload sequence
	due     time.Duration // open loop: scheduled arrival; closed loop: the Submit call
	sent    time.Duration // Submit call entry
	ack     time.Duration // ACK observed (traced pass, sampled writes; else 0)
	done    time.Duration // receipt observed (0: none)
	failed  bool          // submit error, no ack, commit error or timeout
	receipt fireledger.Receipt
}

// read is one cross-node Get issued at a receipt token.
type read struct {
	at    time.Duration // request start
	took  time.Duration
	want  int    // payload index of the write whose token the read carried
	got   int    // payload index of the write whose value it returned
	fault string // "" when it returned a value of its key; else what went wrong
}

type readJob struct {
	idx   int // payload index of the write
	key   string
	value []byte // what that write set
	token fireledger.ReadToken
}

// loadSession drives one Session. Every write in flight has a goroutine of
// its own waiting for the receipt: receipts do not come back in submission
// order (a proposal that ends in a nil round parks its writes until their
// lease expires), so waiting in order would stamp later receipts late and, in
// a closed loop, hold their slots.
type loadSession struct {
	clientID uint64
	sess     fireledger.Session
	gen      *payloads
	w        workload
	epoch    time.Time
	stopAt   time.Duration   // no submissions at or after this offset
	due      []time.Duration // open loop: the arrival schedule
	traced   bool            // stamp the ACK of sampled writes

	mu         sync.Mutex
	writes     []write // sorted by seq once run returns
	submitErrs int     // Submit calls the session refused

	reads chan<- readJob // session 0 of a KV workload; nil otherwise
}

// run submits until stopAt, then waits for the outstanding receipts. It
// returns when every write has resolved, failed or timed out.
func (s *loadSession) run() {
	var wg sync.WaitGroup
	if s.w.closedLoop() {
		// InFlight callers, each sending its next write when the previous
		// one's receipt is in.
		var next atomic.Int64
		for k := 0; k < s.w.InFlight; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				timer := time.NewTimer(time.Hour)
				defer timer.Stop()
				var mine []write
				for {
					i := int(next.Add(1) - 1)
					due := time.Since(s.epoch)
					if due >= s.stopAt || !s.submit(i, due, timer, &mine) {
						break
					}
				}
				s.mu.Lock()
				s.writes = append(s.writes, mine...)
				s.mu.Unlock()
			}()
		}
	} else {
		for i, due := range s.due {
			if wait := due - time.Since(s.epoch); wait > 0 {
				time.Sleep(wait)
			}
			// Submit on the schedule's goroutine, in order; wait elsewhere.
			// A refused write is counted as failed and the schedule goes
			// on, so every arrival due while a session is down is counted.
			p, key, value, sent, ok := s.send(i)
			if !ok {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				timer := time.NewTimer(time.Hour)
				defer timer.Stop()
				w := s.await(p, i, due, sent, key, value, timer)
				s.mu.Lock()
				s.writes = append(s.writes, w)
				s.mu.Unlock()
			}()
		}
	}
	wg.Wait()
	sort.Slice(s.writes, func(a, b int) bool { return s.writes[a].seq < s.writes[b].seq })
}

// find returns the index of the write with sequence number seq, or -1. Valid
// once run has returned (writes are sorted by then).
func (s *loadSession) find(seq uint64) int {
	i := sort.Search(len(s.writes), func(i int) bool { return s.writes[i].seq >= seq })
	if i < len(s.writes) && s.writes[i].seq == seq {
		return i
	}
	return -1
}

// send submits write i. ok is false, and the write counted as a submit error,
// when the session refuses it.
func (s *loadSession) send(i int) (p *fireledger.Pending, key string, value []byte, sent time.Duration, ok bool) {
	payload, key, value := s.gen.next(i)
	sent = time.Since(s.epoch)
	p, err := s.sess.Submit(payload)
	if err != nil {
		s.mu.Lock()
		s.submitErrs++
		s.mu.Unlock()
		return nil, "", nil, 0, false
	}
	return p, key, value, sent, true
}

// submit is one closed-loop call: send write i and wait for its receipt.
func (s *loadSession) submit(i int, due time.Duration, timer *time.Timer, out *[]write) bool {
	p, key, value, _, ok := s.send(i)
	if !ok {
		return false
	}
	*out = append(*out, s.await(p, i, due, due, key, value, timer))
	return true
}

// await waits for p's receipt until writeTimeout after due.
func (s *loadSession) await(p *fireledger.Pending, i int, due, sent time.Duration, key string, value []byte, timer *time.Timer) write {
	w := write{seq: p.Tx.Seq, idx: i, due: due, sent: sent}
	if s.traced && w.seq%s.w.TraceSample == 0 {
		<-p.Acked() // closed by the ACK, or by the resolution if that comes first
		w.ack = time.Since(s.epoch)
	}
	timer.Reset(due + writeTimeout - time.Since(s.epoch))
	select {
	case <-p.Done():
	case <-timer.C:
		w.failed = true
		return w
	}
	w.done = time.Since(s.epoch)
	r, err := p.Wait(context.Background()) // Done is closed: returns at once
	if err != nil {
		w.failed = true
		return w
	}
	w.receipt = r
	if s.reads != nil && i%readEvery == 0 {
		select {
		case s.reads <- readJob{idx: i, key: key, value: value, token: r.Token()}:
		default: // readers are behind: skip the read rather than stall receipts
		}
	}
	return w
}

// valueIndex returns the payload index a KV value starts with. ok is false
// unless got has the shape of want: a value of the same session and length.
func valueIndex(got, want []byte) (idx int, ok bool) {
	if len(got) != len(want) || len(got) < 8 || !bytes.Equal(got[8:], want[8:]) {
		return 0, false
	}
	return int(binary.BigEndian.Uint64(got)), true
}

// readers is the number of concurrent Gets session 1 keeps against node 1.
const readers = 4

// runReaders serves read jobs on sess until jobs closes and returns what it
// measured. Whether a value of the right key was an allowed one is judged
// after the run, against the ledger's order (pass.checkReads).
func runReaders(sess fireledger.Session, epoch time.Time, jobs <-chan readJob) []read {
	var mu sync.Mutex
	var out []read
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				start := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), writeTimeout)
				got, ok, err := sess.Get(ctx, job.key, job.token)
				cancel()
				r := read{at: start.Sub(epoch), took: time.Since(start), want: job.idx}
				switch {
				case err != nil:
					r.fault = err.Error()
				case !ok:
					r.fault = "key missing"
				default:
					if r.got, ok = valueIndex(got, job.value); !ok {
						r.fault = "a value no write of the session set"
					}
				}
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// dialSessions opens the load connections: session i to node i.
func dialSessions(c *cluster, base uint64) ([]fireledger.Session, error) {
	out := make([]fireledger.Session, sessions)
	for i := range out {
		s, err := fireledger.Dial(c.client[i], base+uint64(i))
		if err != nil {
			for _, open := range out[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// probe commits one write through every session and returns once both
// receipts are in: the end of set-up.
func probe(ss []fireledger.Session) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, len(ss))
	for _, s := range ss {
		go func() {
			_, err := s.SubmitWait(ctx, []byte("probe"))
			errs <- err
		}()
	}
	for range ss {
		if err := <-errs; err != nil {
			return fmt.Errorf("probe write: %w", err)
		}
	}
	return nil
}
