package sim

import "time"

// Timer is a cancellable pending callback, satisfied by both virtual and
// wall-clock timers.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Clock abstracts time for protocol code so the same state machines run under
// the simulator (virtual time) and in real deployments (wall-clock time).
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// AfterFunc arranges for fn to run d from now and returns a handle to
	// cancel it. fn runs on the clock's dispatch context: the simulation
	// event loop for virtual clocks, a timer goroutine for real clocks.
	AfterFunc(d time.Duration, fn func()) Timer
}

// EngineClock adapts an Engine to the Clock interface.
type EngineClock struct {
	engine *Engine
}

var _ Clock = (*EngineClock)(nil)

// NewEngineClock returns a Clock driven by the engine's virtual time.
func NewEngineClock(e *Engine) *EngineClock { return &EngineClock{engine: e} }

// Now returns the engine's virtual time.
func (c *EngineClock) Now() time.Duration { return c.engine.Now() }

// AfterFunc schedules fn on the engine d from now.
func (c *EngineClock) AfterFunc(d time.Duration, fn func()) Timer {
	return c.engine.After(d, fn)
}

// RealClock is a Clock backed by the wall clock. Its epoch is the moment it
// is created.
type RealClock struct {
	epoch time.Time
}

var _ Clock = (*RealClock)(nil)

// NewRealClock returns a wall-clock Clock with epoch now.
func NewRealClock() *RealClock { return &RealClock{epoch: time.Now()} }

// Now returns the wall-clock time elapsed since the clock was created.
func (c *RealClock) Now() time.Duration { return time.Since(c.epoch) }

// AfterFunc schedules fn on a timer goroutine d from now.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	return &realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct {
	t *time.Timer
}

func (t *realTimer) Stop() bool { return t.t.Stop() }
