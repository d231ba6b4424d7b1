package experiments

import (
	"testing"
	"time"

	"amoeba/internal/core"
	"amoeba/internal/netsim"
)

// These tests pin the cost model to the paper's headline measurements. They
// are the contract behind every figure: if a refactor shifts a number past
// tolerance, a figure's shape has probably shifted too.

// within asserts got ∈ [want·(1−tol), want·(1+tol)].
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	lo, hi := want*(1-tol), want*(1+tol)
	if got < lo || got > hi {
		t.Errorf("%s = %.3g, want %.3g ± %.0f%%", name, got, want, tol*100)
	} else {
		t.Logf("%s = %.4g (paper %.4g)", name, got, want)
	}
}

func delayMs(t *testing.T, members, size, r int, method core.Method) float64 {
	t.Helper()
	g, err := NewSimGroup(GroupParams{
		Members: members, Resilience: r, Method: method,
		Model: netsim.DefaultCostModel(), Seed: 1,
	})
	if err != nil {
		t.Fatalf("NewSimGroup: %v", err)
	}
	d := g.MeasureDelay(1, size, DelayRounds)
	return float64(d) / float64(time.Millisecond)
}

func TestCalibrationNullDelay(t *testing.T) {
	// Paper: 2.7 ms for a 0-byte PB send to a group of 2.
	within(t, "PB 0B delay, 2 members (ms)", delayMs(t, 2, 0, 0, core.MethodPB), 2.7, 0.1)
}

func TestCalibrationDelayGrowsSlowlyWithMembers(t *testing.T) {
	// Paper: 2.8 ms at 30 members — roughly 4 µs per added member.
	d2 := delayMs(t, 2, 0, 0, core.MethodPB)
	d30 := delayMs(t, 30, 0, 0, core.MethodPB)
	within(t, "PB 0B delay, 30 members (ms)", d30, 2.8, 0.1)
	perMember := (d30 - d2) * 1000 / 28 // µs
	within(t, "delay added per member (µs)", perMember, 4, 0.5)
}

func TestCalibrationLargeMessagePB(t *testing.T) {
	// Paper: an 8000-byte message adds roughly 20 ms under PB (the
	// payload crosses the wire twice, plus copies).
	d0 := delayMs(t, 2, 0, 0, core.MethodPB)
	d8k := delayMs(t, 2, 8000, 0, core.MethodPB)
	within(t, "PB 8000B delta (ms)", d8k-d0, 20, 0.25)
}

func TestCalibrationBBBeatsPBForLargeMessages(t *testing.T) {
	// Paper (Fig 3): for large messages BB is dramatically better; for
	// 0-byte messages the methods are equivalent.
	pb := delayMs(t, 10, 8000, 0, core.MethodPB)
	bb := delayMs(t, 10, 8000, 0, core.MethodBB)
	if bb >= pb*0.75 {
		t.Errorf("BB (%.2f ms) not clearly better than PB (%.2f ms) at 8000 B", bb, pb)
	}
	pb0 := delayMs(t, 10, 0, 0, core.MethodPB)
	bb0 := delayMs(t, 10, 0, 0, core.MethodBB)
	within(t, "BB/PB 0-byte ratio", bb0/pb0, 1.0, 0.1)
}

func TestCalibrationThroughput(t *testing.T) {
	// Paper: maximum 815 messages/s, bounded by the sequencer.
	g, err := NewSimGroup(GroupParams{Members: 4, Method: core.MethodPB, Model: netsim.DefaultCostModel(), Seed: 1})
	if err != nil {
		t.Fatalf("NewSimGroup: %v", err)
	}
	tp := g.MeasureThroughput(0, 2*time.Second)
	within(t, "0B PB throughput (msg/s)", tp, 815, 0.15)
}

func TestCalibrationResilienceDelay(t *testing.T) {
	// Paper: 4.2 ms at r=1 (group of 2); 12.9 ms at r=15 (group of 16);
	// each acknowledgement adds ≈600 µs of serial sequencer processing.
	d1 := delayMs(t, 2, 0, 1, core.MethodPB)
	d15 := delayMs(t, 16, 0, 15, core.MethodPB)
	within(t, "r=1 delay (ms)", d1, 4.2, 0.2)
	within(t, "r=15 delay (ms)", d15, 12.9, 0.15)
	perAck := (d15 - d1) * 1000 / 14
	within(t, "per-ack cost (µs)", perAck, 600, 0.25)
}

func TestCalibrationGroupLayerBudget(t *testing.T) {
	// Paper (Table 3): the group protocol contributes ≈740 µs of the
	// 2740 µs critical path.
	total := GroupLayerTotal(netsim.DefaultCostModel())
	within(t, "group-layer path total (µs)", float64(total.Microseconds()), 740, 0.1)
}

func TestCalibrationParallelGroupsPeak(t *testing.T) {
	// Paper (Fig 6): five 2-member groups aggregate ≈3175 msg/s; adding
	// groups beyond the knee does not scale linearly (Ethernet becomes
	// the bottleneck).
	model := netsim.DefaultCostModel()
	one, _, err := parallelGroups(model, 1, 2)
	if err != nil {
		t.Fatalf("parallelGroups: %v", err)
	}
	five, util, err := parallelGroups(model, 5, 2)
	if err != nil {
		t.Fatalf("parallelGroups: %v", err)
	}
	seven, _, err := parallelGroups(model, 7, 2)
	if err != nil {
		t.Fatalf("parallelGroups: %v", err)
	}
	t.Logf("aggregate: 1 group %.0f, 5 groups %.0f (util %.0f%%), 7 groups %.0f",
		one, five, util*100, seven)
	within(t, "5-group aggregate (msg/s)", five, 3175, 0.25)
	if five < 3*one {
		t.Errorf("5 groups (%.0f) should scale well past one group (%.0f)", five, one)
	}
	if seven > five*1.25 {
		t.Errorf("7 groups (%.0f) should not scale linearly past the knee (5 groups: %.0f)", seven, five)
	}
}

func TestCalibrationRingOverflowCollapse(t *testing.T) {
	// Paper (Fig 4): with 4 KB messages and many senders the sequencer's
	// 32-frame ring overflows and throughput collapses into retransmit
	// timeouts: well below the rate that message size sustains with few
	// senders.
	model := netsim.DefaultCostModel()
	few, err := NewSimGroup(GroupParams{Members: 2, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		t.Fatalf("NewSimGroup: %v", err)
	}
	tpFew := few.MeasureThroughput(4096, 2*time.Second)
	many, err := NewSimGroup(GroupParams{Members: 16, Method: core.MethodPB, Model: model, Seed: 1})
	if err != nil {
		t.Fatalf("NewSimGroup: %v", err)
	}
	tpMany := many.MeasureThroughput(4096, 2*time.Second)
	t.Logf("4KB throughput: 2 senders %.0f msg/s, 16 senders %.0f msg/s", tpFew, tpMany)
	if tpMany > tpFew*0.8 {
		t.Errorf("no overload collapse: 16 senders %.0f vs 2 senders %.0f", tpMany, tpFew)
	}
	drops := many.Stations[0].RingDrops()
	if drops == 0 {
		t.Error("collapse without ring drops: wrong mechanism")
	}
}

// GroupLayerTotal sums the group-layer constants on the Table 3 path,
// matching the paper's "cost for the group protocol itself is 740 µs".
func GroupLayerTotal(model netsim.CostModel) time.Duration {
	return model.GroupOut + model.GroupIn + model.GroupOut + model.GroupIn
}
