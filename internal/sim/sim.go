// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue ordered by firing
// time. All simulated activity — wire transmission, NIC interrupts, CPU
// processing, protocol timers — is expressed as events scheduled on a single
// Engine. Running the engine is single-threaded and fully deterministic for a
// given seed, which makes the performance experiments in this repository
// reproducible bit-for-bit.
//
// Virtual time is expressed as time.Duration since the start of the
// simulation.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. Events are ordered by firing time; ties are
// broken by scheduling order so that the simulation is deterministic.
type Event struct {
	at      time.Duration
	seq     uint64 // tie-breaker: scheduling order
	fn      func()
	stopped bool
	index   int // heap index, -1 when not queued
}

// Stop cancels the event. It reports whether the event was still pending.
// Stopping an already-fired or already-stopped event is a no-op.
func (e *Event) Stop() bool {
	if e.stopped || e.index < 0 {
		return false
	}
	e.stopped = true
	return true
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
	fired uint64
}

// NewEngine returns an engine with the virtual clock at zero and a
// deterministic random source derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. Protocol and network
// models must draw all randomness from here to stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug, and silently reordering time would
// invalidate every measurement taken from the simulation.
func (e *Engine) At(at time.Duration, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// step fires the earliest pending event. It reports false when the queue is
// empty.
func (e *Engine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.stopped {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events with firing time ≤ deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.queue) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWhile executes events while cond returns true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.step() {
	}
}

func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		if !e.queue[0].stopped {
			return e.queue[0]
		}
		heap.Pop(&e.queue)
	}
	return nil
}
