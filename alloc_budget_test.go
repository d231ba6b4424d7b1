package amoeba

import (
	"context"
	"fmt"
	"testing"

	"amoeba/internal/bufpool"
)

// TestAllocBudgetGroupSend holds an ordered send to its allocation budget: the
// heap objects the whole process allocates — sender, sequencer, every member's
// receive path, delivery queues and Receive loops — per Group.Send from a
// non-sequencer member of a three-member, resilience-0 group, in steady state.
// Before buffers had one owner each this read about 53.
func TestAllocBudgetGroupSend(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	ctx, cancel := context.WithCancel(ctxT(t))
	defer cancel()
	net := NewMemoryNetwork()
	defer net.Close()
	var groups [3]*Group
	for i := range groups {
		k, err := net.NewKernel(fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatalf("NewKernel: %v", err)
		}
		if i == 0 {
			groups[i], err = k.CreateGroup(ctx, "budget", GroupOptions{})
		} else {
			groups[i], err = k.JoinGroup(ctx, "budget", GroupOptions{})
		}
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		defer groups[i].Close()
		// Every member consumes its deliveries, as an application would.
		go func(g *Group) {
			for {
				if _, err := g.Receive(ctx); err != nil {
					return
				}
			}
		}(groups[i])
	}
	payload := make([]byte, 64)
	send := func() {
		if err := groups[1].Send(ctx, payload); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 500; i++ {
		send() // fill the pools, size the queues, pass the first history prune
	}
	const budget = 9 // measured 8, plus a tenth
	if got := testing.AllocsPerRun(3000, send); got > budget {
		t.Fatalf("an ordered send costs %.0f heap objects process-wide, budget %d", got, budget)
	}
}
