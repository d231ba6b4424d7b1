package experiments

import (
	"fmt"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/netsim"
)

// DelayRounds is how many sends each delay measurement averages. The
// simulator is deterministic, so far fewer repetitions than the paper's
// 10,000 converge to stable values.
const DelayRounds = 100

// MemberCounts is the group-size sweep of Figures 1 and 3.
var MemberCounts = []int{2, 5, 10, 15, 20, 25, 30}

// Fig1 reproduces Figure 1: delay for one sender using the PB method
// (resilience 0), across message sizes and group sizes. The paper reports
// 2.7 ms for a 0-byte message to a group of 2, rising ≈4 µs per member, and
// roughly +20 ms for 8000-byte messages (the payload crosses the wire
// twice).
func Fig1(model netsim.CostModel) (*Table, error) {
	return delaySweep("Figure 1", core.MethodPB, model,
		"0-byte delay 2.7 ms @2 members → 2.8 ms @30 (≈4 µs/member); 8000 B adds ≈20 ms")
}

// Fig3 reproduces Figure 3: the same sweep with the BB method. 0-byte delay
// matches PB; large messages are dramatically cheaper because the payload
// crosses the wire once.
func Fig3(model netsim.CostModel) (*Table, error) {
	return delaySweep("Figure 3", core.MethodBB, model,
		"0-byte similar to PB; large messages ≈2× better (payload crosses the wire once)")
}

func delaySweep(id string, method core.Method, model netsim.CostModel, note string) (*Table, error) {
	t := &Table{
		ID:        id,
		Title:     fmt.Sprintf("delay for 1 sender, %v method, r=0", method),
		PaperNote: note,
		Columns:   []string{"members"},
	}
	for _, s := range Sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%dB (ms)", s))
	}
	for _, members := range MemberCounts {
		row := []string{fmt.Sprintf("%d", members)}
		for _, size := range Sizes {
			g, err := NewSimGroup(GroupParams{
				Members: members, Method: method, Model: model, Seed: 1,
			})
			if err != nil {
				return nil, err
			}
			d := g.MeasureDelay(1, size, DelayRounds)
			row = append(row, ms(float64(d)/float64(time.Millisecond)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: delay with resilience degree r, group size r+1,
// one sender. The paper reports 4.2 ms at r=1 and 12.9 ms at r=15 — about
// 600 µs per acknowledgement, since the sequencer processes the r acks
// serially.
func Fig7(model netsim.CostModel) (*Table, error) {
	t := &Table{
		ID:        "Figure 7",
		Title:     "delay for 1 sender with resilience r (group size r+1, PB)",
		PaperNote: "4.2 ms @ r=1; 12.9 ms @ r=15; ≈600 µs per acknowledgement",
		Columns:   []string{"r", "members", "0B (ms)", "1024B (ms)"},
	}
	for _, r := range []int{1, 3, 5, 7, 9, 11, 13, 15} {
		g, err := NewSimGroup(GroupParams{
			Members: r + 1, Resilience: r, Model: model, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		d0 := g.MeasureDelay(1, 0, DelayRounds)
		g2, err := NewSimGroup(GroupParams{
			Members: r + 1, Resilience: r, Model: model, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		d1 := g2.MeasureDelay(1, 1024, DelayRounds)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r), fmt.Sprintf("%d", r+1),
			ms(float64(d0) / float64(time.Millisecond)),
			ms(float64(d1) / float64(time.Millisecond)),
		})
	}
	return t, nil
}

// Table3 reproduces Table 3 / Figure 2: the per-layer breakdown of the
// critical path of one 0-byte SendToGroup to a group of 2 under PB. The
// per-layer numbers are the calibrated cost-model constants; the total is
// measured end-to-end in the simulator. The paper's total is 2740 µs, with
// ≈740 µs in the group protocol layer.
func Table3(model netsim.CostModel) (*Table, error) {
	g, err := NewSimGroup(GroupParams{Members: 2, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		return nil, err
	}
	measured := g.MeasureDelay(1, 0, DelayRounds)

	us := func(d time.Duration) string { return fmt.Sprintf("%d", d.Microseconds()) }
	wire := model.FrameTime(core.GroupHeaderSize) // 0-byte payload + group header on the wire
	t := &Table{
		ID:        "Table 3",
		Title:     "critical path of a 0-byte SendToGroup, group of 2, PB",
		PaperNote: "total 2740 µs on 20-MHz MC68030s; group layer ≈740 µs",
		Columns:   []string{"machine", "layer", "µs"},
	}
	t.Rows = [][]string{
		{"sender", "user (call + context switch)", us(model.UserSend)},
		{"sender", "group (build request)", us(model.GroupOut)},
		{"sender", "FLIP out", us(model.FLIPOut)},
		{"sender", "Ethernet driver + send copy", us(model.SendDriver)},
		{"wire", "request frame", us(wire)},
		{"sequencer", "Ethernet interrupt + driver", us(model.RecvInterrupt + model.RecvDriver)},
		{"sequencer", "FLIP in", us(model.FLIPIn)},
		{"sequencer", "group (order + history)", us(model.GroupIn)},
		{"sequencer", "group (build broadcast)", us(model.GroupOut)},
		{"sequencer", "FLIP out", us(model.FLIPOut)},
		{"sequencer", "Ethernet driver + send copy", us(model.SendDriver)},
		{"wire", "broadcast frame", us(wire)},
		{"sender", "Ethernet interrupt + driver", us(model.RecvInterrupt + model.RecvDriver)},
		{"sender", "FLIP in", us(model.FLIPIn)},
		{"sender", "group (sequence + deliver)", us(model.GroupIn)},
		{"sender", "user (unblock + context switch)", us(model.UserDeliver)},
		{"", "measured end-to-end", us(measured)},
	}
	return t, nil
}
