// Package experiments reproduces every table and figure in the paper's
// evaluation (§4) on the calibrated discrete-event simulator: the same
// protocol code that runs on real transports executes over a model of the
// paper's 10 Mbit/s Ethernet, Lance interfaces, and 20-MHz MC68030
// processing costs. Absolute numbers are calibration, but the shapes — who
// wins, where throughput collapses, what each member or acknowledgement
// adds — emerge from the same mechanisms the paper identifies.
//
// Each experiment function returns a Table whose rows mirror the data series
// in the corresponding paper figure; cmd/amoeba-bench prints them and
// bench_test.go wraps them as Go benchmarks.
package experiments

import (
	"fmt"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/flip"
	"amoeba/internal/netsim"
	"amoeba/internal/sim"
)

// Sizes are the paper's message sizes (§4): 0 bytes, 1 KB, 2 KB, 4 KB, and
// 8000 bytes (the implementation limit the paper measured up to).
var Sizes = []int{0, 1024, 2048, 4096, 8000}

// SimGroup is one group running under the simulator.
type SimGroup struct {
	Engine   *sim.Engine
	Net      *netsim.Network
	Stations []*netsim.Station
	Stacks   []*flip.Stack
	Eps      []*core.Endpoint

	delivered []uint64 // per member, data messages only
}

// GroupParams configures a simulated group.
type GroupParams struct {
	Members    int
	Resilience int
	Method     core.Method
	Model      netsim.CostModel
	Seed       int64
	// SendWindow and MaxBatch configure per-sender pipelining and request
	// coalescing; zero takes the core defaults. SendWindow 1 + MaxBatch 1
	// reproduces the unbatched seed behaviour exactly.
	SendWindow int
	MaxBatch   int
	// Share places the group on an existing network (for multi-group
	// experiments); nil builds a fresh one.
	Share *netsim.Network
	// GroupName must differ between groups sharing a network.
	GroupName string
}

// NewSimGroup builds and fully forms a simulated group: member 0 creates,
// the rest join one at a time (in virtual time). The returned group is
// quiescent and ready for measurement.
func NewSimGroup(p GroupParams) (*SimGroup, error) {
	if p.Members < 1 {
		return nil, fmt.Errorf("experiments: group needs at least 1 member, got %d", p.Members)
	}
	if p.GroupName == "" {
		p.GroupName = "bench"
	}
	g := &SimGroup{}
	if p.Share != nil {
		g.Net = p.Share
		g.Engine = p.Share.Engine()
	} else {
		g.Engine = sim.NewEngine(p.Seed)
		g.Net = netsim.New(g.Engine, p.Model)
	}
	clock := sim.NewEngineClock(g.Engine)
	groupAddr := flip.AddressForName(p.GroupName)
	g.delivered = make([]uint64, p.Members)

	for i := 0; i < p.Members; i++ {
		st := g.Net.AttachStation(fmt.Sprintf("%s-%d", p.GroupName, i))
		stack := flip.NewStack(flip.Config{Station: st, Clock: clock, Meter: st})
		g.Stations = append(g.Stations, st)
		g.Stacks = append(g.Stacks, stack)

		idx := i
		cfg := core.Config{
			Group:      groupAddr,
			Self:       stack.AllocAddress(),
			Clock:      clock,
			Meter:      st,
			Resilience: p.Resilience,
			Method:     p.Method,
			SendWindow: p.SendWindow,
			MaxBatch:   p.MaxBatch,
			OnDeliver: func(d core.Delivery) {
				if d.Kind == core.KindData {
					g.delivered[idx]++
				}
			},
			// Experiment-scale timeouts: the paper's network loses
			// packets only under overload, where timeout-driven
			// retransmission is exactly the collapse mechanism it
			// reports.
			RetryInterval: 50 * time.Millisecond,
			NakDelay:      2 * time.Millisecond,
			SyncInterval:  250 * time.Millisecond,
			MaxRetries:    1000, // experiments never abandon a send
		}
		tr := core.NewFLIPTransport(stack, cfg.Self, groupAddr)
		cfg.Transport = tr

		var (
			ep  *core.Endpoint
			err error
		)
		joined := false
		if i == 0 {
			ep, err = core.NewCreator(cfg)
		} else {
			ep, err = core.NewJoiner(cfg, func(e error) {
				if e != nil {
					err = e
				}
				joined = true
			})
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: member %d: %w", i, err)
		}
		g.Eps = append(g.Eps, ep)
		tr.Bind(ep)
		ep.Start()
		if i > 0 {
			g.Engine.RunWhile(func() bool { return !joined })
			if err != nil {
				return nil, fmt.Errorf("experiments: member %d join: %w", i, err)
			}
		}
	}
	// Let formation traffic quiesce.
	g.Engine.RunUntil(g.Engine.Now() + 100*time.Millisecond)
	return g, nil
}

// Delivered reports data messages delivered at member i.
func (g *SimGroup) Delivered(i int) uint64 { return g.delivered[i] }

// MeasureDelay has member `sender` send `rounds` messages of `size` bytes,
// one after another (each send starts when the previous completes), and
// returns the mean completion delay in virtual time. This is the paper's
// delay experiment: one continuous sender, everyone receiving.
func (g *SimGroup) MeasureDelay(sender, size, rounds int) time.Duration {
	payload := make([]byte, size) // never written, so every send may keep it (Endpoint.Send)
	st := g.Stations[sender]
	var (
		total   time.Duration
		started time.Duration
		done    int
	)
	var sendNext func()
	sendNext = func() {
		started = st.Now()
		g.Eps[sender].Send(payload, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("experiments: send failed: %v", err))
			}
			total += st.Now() - started
			done++
			if done < rounds {
				// Next send once the sender's CPU is free; see
				// StartSenders.
				g.Engine.At(st.Now(), sendNext)
			}
		})
	}
	g.Engine.After(0, sendNext)
	g.Engine.RunWhile(func() bool { return done < rounds })
	return total / time.Duration(rounds)
}

// MeasureThroughput has every member send `size`-byte messages continuously
// for the virtual duration d (after a warmup of d/5) and returns ordered
// messages per second, measured as data deliveries at member 0.
func (g *SimGroup) MeasureThroughput(size int, d time.Duration) float64 {
	g.StartSenders(size)
	warmup := d / 5
	g.Engine.RunUntil(g.Engine.Now() + warmup)
	startCount := g.Delivered(0)
	startTime := g.Engine.Now()
	g.Engine.RunUntil(startTime + d)
	elapsed := g.Engine.Now() - startTime
	return float64(g.Delivered(0)-startCount) / elapsed.Seconds()
}

// StartSenders makes every member send continuously: each completed send
// issues the next as soon as the member's CPU is free. (Scheduling at the
// station's virtual clock rather than recursing matters for the sequencer,
// whose own sends complete synchronously — the sending thread still occupies
// the CPU, so back-to-back sends advance virtual time.)
func (g *SimGroup) StartSenders(size int) {
	for i := range g.Eps {
		g.startSenderLoops(i, size, 1)
	}
}

// StartPipelinedSenders runs `depth` concurrent send loops at each of the
// given members — the model of a multithreaded client keeping depth
// operations outstanding. With depth above the member's SendWindow, queued
// sends coalesce into batch requests.
func (g *SimGroup) StartPipelinedSenders(size, depth int, members ...int) {
	for _, i := range members {
		g.startSenderLoops(i, size, depth)
	}
}

func (g *SimGroup) startSenderLoops(member, size, loops int) {
	payload := make([]byte, size) // never written, so every send may keep it (Endpoint.Send)
	for l := 0; l < loops; l++ {
		var loop func(error)
		loop = func(error) {
			g.Engine.At(g.Stations[member].Now(), func() {
				// Sends that fail (history backpressure surfaced
				// as an error after many retries) just try again.
				g.Eps[member].Send(payload, loop)
			})
		}
		g.Engine.After(0, func() { loop(nil) })
	}
}
