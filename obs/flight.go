package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// flightStripes spreads concurrent recorders across locks; events carry a
// global sequence so a dump re-interleaves them in record order.
const flightStripes = 8

// FlightEvent is one recorded protocol event.
type FlightEvent struct {
	Seq   uint64 // global record order across stripes
	At    time.Time
	Scope string // who recorded it: "core/<group>", "wal", "kv/shard-3", …
	Event string
}

// Recorder is the flight recorder: a bounded, lock-striped ring buffer of
// recent protocol events (membership changes, expulsions, NAKs,
// retransmissions, migrate phases, WAL degradations). Writers pay one
// striped mutex and no allocation beyond the formatted string; the ring
// overwrites oldest-first, so a dump after a failure shows the last N
// events that led up to it. A nil *Recorder is the no-op sink.
type Recorder struct {
	seq     atomic.Uint64
	stripes [flightStripes]struct {
		mu   sync.Mutex
		ring []FlightEvent
		next int
		full bool
	}
	size int // per-stripe capacity
}

func newRecorder(size int) *Recorder {
	r := &Recorder{size: (size + flightStripes - 1) / flightStripes}
	if r.size < 8 {
		r.size = 8
	}
	return r
}

// Record appends one event.
func (r *Recorder) Record(scope, event string) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	s := &r.stripes[seq%flightStripes]
	ev := FlightEvent{Seq: seq, At: time.Now(), Scope: scope, Event: event}
	s.mu.Lock()
	if s.ring == nil {
		s.ring = make([]FlightEvent, r.size)
	}
	s.ring[s.next] = ev
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Recordf is Record with formatting.
func (r *Recorder) Recordf(scope, format string, args ...any) {
	if r == nil {
		return
	}
	r.Record(scope, fmt.Sprintf(format, args...))
}

// Dump returns the retained events in record order.
func (r *Recorder) Dump() []FlightEvent {
	if r == nil {
		return nil
	}
	var out []FlightEvent
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if s.full {
			out = append(out, s.ring[s.next:]...)
			out = append(out, s.ring[:s.next]...)
		} else {
			out = append(out, s.ring[:s.next]...)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Format renders a dump, one event per line.
func (r *Recorder) Format() string {
	evs := r.Dump()
	if len(evs) == 0 {
		return "flight recorder: empty\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d events\n", len(evs))
	t0 := evs[0].At
	for _, e := range evs {
		fmt.Fprintf(&b, "  #%-6d +%-10v %-16s %s\n", e.Seq, e.At.Sub(t0).Round(time.Microsecond), e.Scope, e.Event)
	}
	return b.String()
}
