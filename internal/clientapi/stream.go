package clientapi

import (
	"context"
	"sync"
)

// localQueueCap bounds the events an in-process stream's sink holds for its
// relay. A consumer further behind is parked at the hub, which keeps its
// place in the ring or in a replay cohort; the node's delivery path never
// waits for it.
const localQueueCap = 256

// StreamLocal streams node's merged definite block sequence from cursor cur
// to an in-process consumer: every block matching flt, each exactly once and
// in merged order. The stream is served by a fan-out hub of its own, the same
// engine that serves a Server's SUBSCRIBE connections, minus the encoding:
// history is replayed from the node's log, then the live tail follows from
// the hub's ring, and a consumer that falls more than the ring behind is
// served from replay again at its own pace.
//
// The channel closes when ctx ends, or after a terminal error: a cursor
// below the retained history, a read failure or a cursor worker out of range
// arrives as one BlockEvent with Err set, never dropped for a slow consumer.
func StreamLocal(ctx context.Context, node Node, cur Cursor, flt Filter) <-chan BlockEvent {
	ch, _ := streamLocal(ctx, node, cur, flt)
	return ch
}

// streamLocal is StreamLocal, also returning the stream's hub (for its
// counters).
func streamLocal(ctx context.Context, node Node, cur Cursor, flt Filter) (<-chan BlockEvent, *Hub) {
	ch := make(chan BlockEvent)
	hub := NewHub(node, nil)
	sink := &localSink{wake: make(chan struct{}, 1)}
	sub, err := hub.Subscribe(cur, flt, sink)
	if err != nil {
		sink.End(err)
	}
	go func() {
		defer close(ch)
		defer hub.Close()
		sink.relay(ctx, hub, sub, ch)
	}()
	return ch, hub
}

// localSink is an in-process stream's hub sink: a bounded queue of events
// that refuses, rather than waits, when full.
type localSink struct {
	mu    sync.Mutex
	queue []BlockEvent
	err   error // set by End: the stream is over
	wake  chan struct{}
}

func (s *localSink) TrySend(f *hubFrame) bool {
	s.mu.Lock()
	ok := len(s.queue) < localQueueCap
	if ok {
		s.queue = append(s.queue, BlockEvent{Worker: f.worker, Block: f.blk})
	}
	s.mu.Unlock()
	if ok {
		poke(s.wake)
	}
	return ok
}

func (s *localSink) End(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	poke(s.wake)
}

// relay moves queued events onto ch until ctx ends or the hub ends the
// stream. Each time it empties the queue it unparks the subscriber, so the
// hub resumes from its ring or cohort. The hub calls End only after its last
// TrySend, so the terminal event follows every block.
func (s *localSink) relay(ctx context.Context, hub *Hub, sub *hubSub, ch chan<- BlockEvent) {
	for {
		s.mu.Lock()
		batch, err := s.queue, s.err
		s.queue = nil
		s.mu.Unlock()
		if len(batch) > 0 {
			hub.Unpark(sub)
		}
		for _, ev := range batch {
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
		if err != nil {
			select {
			case ch <- BlockEvent{Err: err}:
			case <-ctx.Done():
			}
			return
		}
		if len(batch) == 0 {
			select {
			case <-s.wake:
			case <-ctx.Done():
				return
			}
		}
	}
}
