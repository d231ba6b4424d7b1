package amoeba

import (
	"context"
	"fmt"
	"testing"

	"amoeba/internal/bufpool"
)

// budgetGroup boots a three-member group whose members all consume their
// deliveries, as an application would. Member 0 created it and sequences it.
func budgetGroup(t *testing.T, ctx context.Context, name string, opts GroupOptions) [3]*Group {
	t.Helper()
	net := NewMemoryNetwork()
	t.Cleanup(net.Close)
	var groups [3]*Group
	for i := range groups {
		k, err := net.NewKernel(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatalf("NewKernel: %v", err)
		}
		if i == 0 {
			groups[i], err = k.CreateGroup(ctx, name, opts)
		} else {
			groups[i], err = k.JoinGroup(ctx, name, opts)
		}
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		t.Cleanup(func() { groups[i].Close() })
		go func(g *Group) {
			for {
				if _, err := g.Receive(ctx); err != nil {
					return
				}
			}
		}(groups[i])
	}
	return groups
}

// sendBudget fails t if send, after a warm-up that fills the pools, sizes
// the queues and passes the first history prunes, costs more than budget
// heap objects process-wide.
func sendBudget(t *testing.T, what string, budget float64, send func()) {
	t.Helper()
	for i := 0; i < 500; i++ {
		send()
	}
	got := testing.AllocsPerRun(3000, send)
	t.Logf("%.2f heap objects per %s", got, what)
	if got > budget {
		t.Fatalf("%s costs %.2f heap objects process-wide, budget %.1f", what, got, budget)
	}
}

// TestAllocBudgetGroupSend holds an ordered send to its allocation budget: the
// heap objects the whole process allocates — sender, sequencer, every member's
// receive path, delivery queues and Receive loops — per Group.Send from a
// non-sequencer member of a three-member, resilience-0 group, in steady state.
// Before buffers had one owner each this read about 53; before the history
// held its entries by value, 8.
func TestAllocBudgetGroupSend(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	groups := budgetGroup(t, ctx, "budget", GroupOptions{})
	payload := make([]byte, 64)
	sendBudget(t, "Group.Send", 5.5, func() { // measured 5, plus a tenth
		if err := groups[1].Send(ctx, payload); err != nil {
			t.Error(err)
		}
	})
}

// TestAllocBudgetGroupSendResilient is the same budget with resilience 1,
// where every send is ordered tentatively and accepted on a member's ack. The
// sequencer records acks in the history slot's reused array: an ack record
// allocated per send, as the map it once was, would cost at least one object
// more.
func TestAllocBudgetGroupSendResilient(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	groups := budgetGroup(t, ctx, "budget-r1", GroupOptions{Resilience: 1})
	payload := make([]byte, 64)
	sendBudget(t, "resilient Group.Send", 5.5, func() { // measured 5 (10 with a map per send), plus a tenth
		if err := groups[1].Send(ctx, payload); err != nil {
			t.Error(err)
		}
	})
}

// TestAllocBudgetGroupStart holds the owned path, Group.Start, to its budget:
// Start keeps the payload it is given, so unlike Send it copies nothing. The
// payloads are made before the measurement, one per send, as a caller that
// hands each one over would.
func TestAllocBudgetGroupStart(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	groups := budgetGroup(t, ctx, "budget-start", GroupOptions{})
	const sends = 500 + 3001 // warm-up plus AllocsPerRun's runs and its extra one
	payloads := make([][][]byte, sends)
	for i := range payloads {
		payloads[i] = [][]byte{make([]byte, 64)}
	}
	done := make(chan error, 1)
	finish := func(err error) { done <- err }
	n := 0
	sendBudget(t, "Group.Start", 4.4, func() { // measured 4, plus a tenth
		groups[1].Start(payloads[n], finish)
		n++
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
}
