package experiments

import (
	"fmt"
	"time"

	"amoeba/internal/cm"
	"amoeba/internal/core"
	"amoeba/internal/cost"
	"amoeba/internal/flip"
	"amoeba/internal/netsim"
	"amoeba/internal/rpc"
	"amoeba/internal/sim"
)

// RPCComparison reproduces the §4 claim that a null group send is slightly
// FASTER than a null RPC on the same hardware (2.7 ms vs 2.8 ms): the
// sequencer handles a group message entirely in the kernel, while an RPC
// must cross into the server's user thread and back.
func RPCComparison(model netsim.CostModel) (*Table, error) {
	// Group send delay, group of 2.
	g, err := NewSimGroup(GroupParams{Members: 2, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		return nil, err
	}
	groupDelay := g.MeasureDelay(1, 0, DelayRounds)

	// Null RPC delay on the same simulated hardware.
	engine := sim.NewEngine(1)
	net := netsim.New(engine, model)
	clock := sim.NewEngineClock(engine)
	stS := net.AttachStation("server")
	stC := net.AttachStation("client")
	stackS := flip.NewStack(flip.Config{Station: stS, Clock: clock, Meter: stS})
	stackC := flip.NewStack(flip.Config{Station: stC, Clock: clock, Meter: stC})
	srv, err := rpc.NewServer(rpc.Config{Stack: stackS, Clock: clock, Meter: stS}, 0,
		func(req []byte) ([]byte, flip.Address) { return nil, 0 })
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// The rpc.Client.CallContext API blocks on a channel, which cannot run
	// inside a single-threaded simulation; drive the client's wire protocol
	// directly instead, charging exactly what the real client charges.
	clientAddr := stackC.AllocAddress()
	rounds := DelayRounds
	var total, started time.Duration
	done := 0
	var sendNext func()
	stackC.Register(clientAddr, func(m flip.Message) {
		if _, _, ok := rpc.DecodeReply(m.Payload); !ok {
			return
		}
		stC.Charge(cost.CtrlIn, 0)      // reply decode + matching
		stC.Charge(cost.UserDeliver, 0) // unblock the calling thread
		total += stC.Now() - started
		done++
		if done < rounds {
			sendNext()
		}
	})
	txn := uint32(0)
	sendNext = func() {
		txn++
		started = stC.Now()
		stC.Charge(cost.UserSend, 0) // syscall + context switch into Call
		stC.Charge(cost.GroupOut, 0) // RPC output processing (top layer)
		_ = stackC.Send(clientAddr, srv.Addr(), rpc.EncodeRequest(txn, clientAddr, nil))
	}
	engine.After(0, sendNext)
	engine.RunWhile(func() bool { return done < rounds })
	rpcDelay := total / time.Duration(rounds)

	t := &Table{
		ID:        "§4 RPC comparison",
		Title:     "null group send (group of 2, PB) vs null RPC",
		PaperNote: "group send 2.7 ms, RPC 2.8 ms: group communication ≈0.1 ms faster",
		Columns:   []string{"primitive", "delay (ms)"},
	}
	t.Rows = [][]string{
		{"SendToGroup (2 members)", ms(float64(groupDelay) / float64(time.Millisecond))},
		{"null RPC", ms(float64(rpcDelay) / float64(time.Millisecond))},
		{"difference", ms(float64(rpcDelay-groupDelay) / float64(time.Millisecond))},
	}
	return t, nil
}

// CMComparison reproduces the §6 comparison with the Chang–Maxemchuk
// token-site protocol: CM broadcasts both data and acknowledgements, so each
// broadcast interrupts every machine twice (2(n−1) interrupts vs Amoeba's
// n) and uses 2–3 messages; Amoeba PB uses exactly 2 in the failure-free
// case.
func CMComparison(model netsim.CostModel) (*Table, error) {
	const members = 8
	const rounds = 50

	// Amoeba PB.
	g, err := NewSimGroup(GroupParams{Members: members, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		return nil, err
	}
	intBefore := totalInterrupts(g.Stations)
	framesBefore := totalFrames(g.Stations)
	amoebaDelay := g.MeasureDelay(1, 0, rounds)
	amoebaInts := float64(totalInterrupts(g.Stations)-intBefore) / rounds
	amoebaFrames := float64(totalFrames(g.Stations)-framesBefore) / rounds

	// Chang–Maxemchuk on identical hardware.
	cmDelay, cmInts, cmFrames, err := cmDelayRun(model, members, rounds)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:        "§6 CM comparison",
		Title:     fmt.Sprintf("Amoeba PB vs Chang–Maxemchuk, %d members, 0-byte messages", members),
		PaperNote: "CM: 2–3 messages, 2(n−1) interrupts per broadcast; Amoeba: 2 messages, n interrupts",
		Columns:   []string{"protocol", "delay (ms)", "interrupts/msg", "frames/msg"},
	}
	t.Rows = [][]string{
		{"Amoeba PB", ms(float64(amoebaDelay) / float64(time.Millisecond)),
			fmt.Sprintf("%.1f", amoebaInts), fmt.Sprintf("%.1f", amoebaFrames)},
		{"Chang–Maxemchuk", ms(float64(cmDelay) / float64(time.Millisecond)),
			fmt.Sprintf("%.1f", cmInts), fmt.Sprintf("%.1f", cmFrames)},
	}
	return t, nil
}

func totalInterrupts(stations []*netsim.Station) uint64 {
	var n uint64
	for _, s := range stations {
		n += s.Interrupts()
	}
	return n
}

func totalFrames(stations []*netsim.Station) uint64 {
	var n uint64
	for _, s := range stations {
		n += s.FramesOut()
	}
	return n
}

// cmDelayRun builds a CM ring on the simulator and measures one sender's
// ordering delay plus per-message interrupt and frame costs.
func cmDelayRun(model netsim.CostModel, members, rounds int) (time.Duration, float64, float64, error) {
	engine := sim.NewEngine(1)
	net := netsim.New(engine, model)
	clock := sim.NewEngineClock(engine)
	group := flip.AddressForName("cm-bench")

	stations := make([]*netsim.Station, members)
	stacks := make([]*flip.Stack, members)
	addrs := make([]flip.Address, members)
	for i := 0; i < members; i++ {
		stations[i] = net.AttachStation(fmt.Sprintf("cm-%d", i))
		stacks[i] = flip.NewStack(flip.Config{Station: stations[i], Clock: clock, Meter: stations[i]})
		addrs[i] = stacks[i].AllocAddress()
	}
	eps := make([]*cm.Endpoint, members)
	for i := 0; i < members; i++ {
		ep, err := cm.New(cm.Config{
			Group: group, Self: addrs[i], Members: addrs, Stack: stacks[i],
			Clock: clock, Meter: stations[i],
			RetryInterval: 50 * time.Millisecond,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		eps[i] = ep
	}
	// Let locates settle.
	engine.RunUntil(engine.Now() + 50*time.Millisecond)

	sender := 1
	st := stations[sender]
	intBefore := totalInterrupts(stations)
	framesBefore := totalFrames(stations)
	var total, started time.Duration
	done := 0
	var sendNext func()
	sendNext = func() {
		started = st.Now()
		eps[sender].Send(nil, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("cm send failed: %v", err))
			}
			total += st.Now() - started
			done++
			if done < rounds {
				sendNext()
			}
		})
	}
	engine.After(0, sendNext)
	engine.RunWhile(func() bool { return done < rounds })

	ints := float64(totalInterrupts(stations)-intBefore) / float64(rounds)
	frames := float64(totalFrames(stations)-framesBefore) / float64(rounds)
	return total / time.Duration(rounds), ints, frames, nil
}

// UserSpaceAblation reproduces the §5 discussion: Oey et al. measured a 32%
// communication-performance penalty for running the protocols in user space
// instead of the kernel. Scaling the protocol-layer costs by 1.32 models
// that move; the delay penalty on a null send is well under 32% because wire
// time, interrupts, and copies are unchanged — matching the paper's point
// that for most applications the difference was small.
func UserSpaceAblation(model netsim.CostModel) (*Table, error) {
	kernel, err := NewSimGroup(GroupParams{Members: 2, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		return nil, err
	}
	kernelDelay := kernel.MeasureDelay(1, 0, DelayRounds)

	userModel := model
	userModel.ProtocolFactor = 1.32
	userModel.UserSpaceCrossing = 80 * time.Microsecond
	user, err := NewSimGroup(GroupParams{Members: 2, Method: core.MethodPB, Model: userModel, Seed: 1})
	if err != nil {
		return nil, err
	}
	userDelay := user.MeasureDelay(1, 0, DelayRounds)

	kernelTp, err := NewSimGroup(GroupParams{Members: 4, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		return nil, err
	}
	ktp := kernelTp.MeasureThroughput(0, ThroughputWindow)
	userTp, err := NewSimGroup(GroupParams{Members: 4, Method: core.MethodPB, Model: userModel, Seed: 1})
	if err != nil {
		return nil, err
	}
	utp := userTp.MeasureThroughput(0, ThroughputWindow)

	t := &Table{
		ID:        "§5 user-space ablation",
		Title:     "in-kernel vs user-space protocol implementation (+32% protocol processing)",
		PaperNote: "Oey et al.: 32% decrease on synthetic benchmarks, small for most applications",
		Columns:   []string{"metric", "kernel", "user space", "penalty"},
	}
	t.Rows = [][]string{
		{"0 B delay (ms)",
			ms(float64(kernelDelay) / float64(time.Millisecond)),
			ms(float64(userDelay) / float64(time.Millisecond)),
			fmt.Sprintf("%.0f%%", 100*(float64(userDelay)/float64(kernelDelay)-1))},
		{"0 B throughput (msg/s, 4 members)",
			msgsPerS(ktp), msgsPerS(utp),
			fmt.Sprintf("%.0f%%", 100*(1-utp/ktp))},
	}
	return t, nil
}
