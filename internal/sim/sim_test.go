package sim

import (
	"sync"
	"testing"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(30*time.Microsecond, func() { order = append(order, 3) })
	e.After(10*time.Microsecond, func() { order = append(order, 1) })
	e.After(20*time.Microsecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("clock = %v, want 30µs", e.Now())
	}
}

func TestEngineTiesBreakByScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits int
	e.After(time.Millisecond, func() {
		hits++
		e.After(time.Millisecond, func() {
			hits++
		})
	})
	e.Run()
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("clock = %v, want 2ms", e.Now())
	}
}

func TestEngineStopCancelsEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(time.Millisecond, func() { fired = true })
	if !ev.Stop() {
		t.Fatal("Stop reported event not pending")
	}
	if ev.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped event fired")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var early, late bool
	e.After(time.Millisecond, func() { early = true })
	e.After(10*time.Millisecond, func() { late = true })
	e.RunUntil(5 * time.Millisecond)
	if !early {
		t.Fatal("event before deadline did not fire")
	}
	if late {
		t.Fatal("event after deadline fired")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", e.Now())
	}
	e.Run()
	if !late {
		t.Fatal("remaining event lost after RunUntil")
	}
}

func TestEngineRunUntilAdvancesEmptyClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(time.Millisecond, tick)
	}
	e.After(time.Millisecond, tick)
	e.RunWhile(func() bool { return count < 5 })
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestEngineDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	stopped := e.After(time.Millisecond, func() {})
	stopped.Stop()
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestEngineClock(t *testing.T) {
	e := NewEngine(1)
	c := NewEngineClock(e)
	fired := false
	c.AfterFunc(3*time.Millisecond, func() { fired = true })
	if c.Now() != 0 {
		t.Fatalf("Now = %v, want 0", c.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("clock timer did not fire")
	}
	if c.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", c.Now())
	}
}

func TestManualClockAdvanceFiresDueTimers(t *testing.T) {
	c := NewManualClock()
	var order []int
	c.AfterFunc(2*time.Millisecond, func() { order = append(order, 2) })
	c.AfterFunc(1*time.Millisecond, func() { order = append(order, 1) })
	c.AfterFunc(10*time.Millisecond, func() { order = append(order, 3) })
	c.Advance(5 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v, want 5ms", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	if len(order) != 3 {
		t.Fatalf("late timer did not fire: %v", order)
	}
}

func TestManualClockStop(t *testing.T) {
	c := NewManualClock()
	fired := false
	tm := c.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop reported not pending")
	}
	c.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestManualClockNestedTimers(t *testing.T) {
	c := NewManualClock()
	var times []time.Duration
	c.AfterFunc(time.Millisecond, func() {
		times = append(times, c.Now())
		c.AfterFunc(time.Millisecond, func() {
			times = append(times, c.Now())
		})
	})
	c.Advance(10 * time.Millisecond)
	if len(times) != 2 {
		t.Fatalf("fired %d timers, want 2", len(times))
	}
	if times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Fatalf("fire times = %v", times)
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	c := NewRealClock()
	ch := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("real timer did not fire")
	}
	if c.Now() <= 0 {
		t.Fatal("real clock did not advance")
	}
}

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ManualClock is a Clock advanced explicitly by tests. It dispatches due
// timers synchronously from Advance, which makes timer-driven protocol paths
// (retransmission, failure detection) testable without sleeping.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Duration
	seq    uint64
	timers []*manualTimer
}

var _ Clock = (*ManualClock)(nil)

// NewManualClock returns a ManualClock at time zero.
func NewManualClock() *ManualClock { return &ManualClock{} }

type manualTimer struct {
	clock   *ManualClock
	at      time.Duration
	seq     uint64
	fn      func()
	stopped bool
}

func (t *manualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Now returns the clock's current time.
func (c *ManualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc registers fn to run when the clock is advanced past d from now.
func (c *ManualClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t := &manualTimer{clock: c, at: c.now + d, seq: c.seq, fn: fn}
	c.seq++
	c.timers = append(c.timers, t)
	return t
}

// Advance moves the clock forward by d, firing every due timer in time order.
// Timers scheduled by fired callbacks fire too if they fall within the
// window.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	deadline := c.now + d
	for {
		idx := -1
		for i, t := range c.timers {
			if t.stopped {
				continue
			}
			if t.at > deadline {
				continue
			}
			if idx == -1 || t.at < c.timers[idx].at ||
				(t.at == c.timers[idx].at && t.seq < c.timers[idx].seq) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		t := c.timers[idx]
		c.timers = append(c.timers[:idx], c.timers[idx+1:]...)
		if t.at > c.now {
			c.now = t.at
		}
		c.mu.Unlock()
		t.fn()
		c.mu.Lock()
	}
	if c.now < deadline {
		c.now = deadline
	}
	c.mu.Unlock()
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.step() {
	}
}
