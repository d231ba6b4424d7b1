package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"amoeba/internal/netw/memnet"
)

// These tests target specific loss interleavings and randomized fault
// schedules beyond the happy paths of basic_test.go.

func TestBBAcceptBeforeDataRecoversViaNak(t *testing.T) {
	// Drop heavily so some members see the sequencer's accept without the
	// sender's BB data multicast; the gap machinery must fetch the full
	// message from the sequencer's history.
	g := newGroup(t, 4, memnet.Config{DropRate: 0.25, Seed: 13}, func(c *Config) {
		c.Method = MethodBB
	})
	const msgs = 12
	for i := 0; i < msgs; i++ {
		if err := g.send(1, []byte(fmt.Sprintf("bb-loss-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(msgs)
		for i := range data {
			if string(data[i].Payload) != fmt.Sprintf("bb-loss-%d", i) {
				t.Fatalf("payload %d = %q", i, data[i].Payload)
			}
		}
	}
	// The point of the test: at least one full-message retransmission
	// must have been served (accept-without-data or plain loss).
	if g.nodes[0].ep.Stats().Retransmitted == 0 {
		t.Skip("no retransmissions under this seed; loss path not exercised")
	}
}

func TestBBDuplicateDataReannouncesAccept(t *testing.T) {
	// Duplicate everything: the sequencer will see BB data for messages
	// it already ordered and must re-announce the accept rather than
	// re-order.
	g := newGroup(t, 3, memnet.Config{DuplicateRate: 0.9, Seed: 17}, func(c *Config) {
		c.Method = MethodBB
	})
	const msgs = 10
	for i := 0; i < msgs; i++ {
		if err := g.send(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for _, nd := range g.nodes {
		data := nd.waitData(msgs)
		if len(data) != msgs {
			t.Fatalf("delivered %d, want exactly %d (duplicates ordered twice?)", len(data), msgs)
		}
		for i := range data {
			if data[i].Payload[0] != byte(i) {
				t.Fatalf("order broken at %d", i)
			}
		}
	}
	// No duplicate ordering at the sequencer.
	if got := g.nodes[0].ep.Stats().Ordered; got != msgs+3 { // +3 joins
		t.Fatalf("sequencer ordered %d messages, want %d", got, msgs+3)
	}
}

func TestIdleTailRecoveredBySync(t *testing.T) {
	// The final broadcast is lost at a member and nothing follows; only
	// the sequencer's periodic sync watermark can expose the gap.
	g := newGroup(t, 2, memnet.Config{}, func(c *Config) {
		c.SyncInterval = 25 * time.Millisecond
	})
	// Partition the member just long enough to miss one message.
	g.net.Isolate(1, true)
	if err := g.send(0, []byte("tail")); err != nil {
		t.Fatalf("send: %v", err)
	}
	g.net.Isolate(1, false)
	data := g.nodes[1].waitData(1)
	if string(data[0].Payload) != "tail" {
		t.Fatalf("tail = %q", data[0].Payload)
	}
}

func TestConcurrentJoinersAllAdmitted(t *testing.T) {
	g := newGroup(t, 1, memnet.Config{}, noRetryCfg)
	const joiners = 5
	var wg sync.WaitGroup
	errs := make(chan error, joiners)
	var mu sync.Mutex
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// addNode mutates shared test state; serialise the test
			// harness part, not the protocol part.
			mu.Lock()
			defer mu.Unlock()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("join panicked: %v", r)
				}
			}()
			g.addNode(false)
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(testTimeout)
	for {
		info := g.nodes[0].ep.Info()
		if len(info.Members) == joiners+1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("membership = %d, want %d", len(g.nodes[0].ep.Info().Members), joiners+1)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Distinct member ids all around.
	seen := map[MemberID]bool{}
	for _, m := range g.nodes[0].ep.Info().Members {
		if seen[m.ID] {
			t.Fatalf("duplicate member id %d", m.ID)
		}
		seen[m.ID] = true
	}
	// The grown group still orders.
	if err := g.send(3, []byte("after-join-storm")); err != nil {
		t.Fatalf("send: %v", err)
	}
	g.nodes[5].waitData(1)
	requireNoRetries(t, g)
}

func TestJoinAckLossRetriesToSameIdentity(t *testing.T) {
	// Heavy loss makes the first join ack likely to vanish; the joiner's
	// retries must converge on a single admission, not several.
	g := newGroup(t, 2, memnet.Config{DropRate: 0.4, Seed: 23}, func(c *Config) {
		c.RetryInterval = 15 * time.Millisecond
		c.MaxRetries = 100
	})
	nd := g.addNode(false)
	info := nd.ep.Info()
	if info.Self == noMember {
		t.Fatalf("joiner has no id: %+v", info)
	}
	deadline := time.After(testTimeout)
	for len(g.nodes[0].ep.Info().Members) != 3 {
		select {
		case <-deadline:
			t.Fatalf("sequencer sees %d members, want 3 (double admission?)",
				len(g.nodes[0].ep.Info().Members))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestSequencerLeaveWithLaggingMember(t *testing.T) {
	// A member is partitioned when the sequencer leaves; the handoff must
	// not strand it: after healing it catches up from the new sequencer.
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		c.SyncInterval = 25 * time.Millisecond
	})
	for i := 0; i < 3; i++ {
		if err := g.send(0, []byte{byte(i)}); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	g.nodes[2].waitData(3)
	g.net.Isolate(2, true)
	if err := await(t, "leave", func(d func(error)) { g.nodes[0].ep.Leave(d) }); err != nil {
		t.Fatalf("sequencer leave: %v", err)
	}
	if err := g.send(1, []byte("after-handoff")); err != nil {
		t.Fatalf("send after handoff: %v", err)
	}
	g.net.Isolate(2, false)
	data := g.nodes[2].waitData(4)
	if string(data[3].Payload) != "after-handoff" {
		t.Fatalf("lagging member got %q", data[3].Payload)
	}
	info := g.nodes[2].ep.Info()
	if info.Sequencer != 1 {
		t.Fatalf("lagging member's sequencer = %d", info.Sequencer)
	}
}

// TestTotalOrderPropertyUnderRandomFaults is the suite's property test: for
// arbitrary fault-injection seeds and rates, all members of a busy group
// deliver identical prefixes. quick.Check drives the schedule space.
func TestTotalOrderPropertyUnderRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	prop := func(seed int64, dropPct, dupPct uint8) bool {
		drop := float64(dropPct%25) / 100 // 0–24%
		dup := float64(dupPct%20) / 100   // 0–19%
		g := newGroup(t, 3, memnet.Config{
			DropRate: drop, DuplicateRate: dup, Seed: seed,
		}, nil)
		const perSender = 6
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for s := 0; s < 3; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					done := make(chan error, 1)
					g.nodes[s].ep.Send([]byte(fmt.Sprintf("%d-%d", s, i)), func(e error) { done <- e })
					select {
					case e := <-done:
						if e != nil {
							mu.Lock()
							ok = false
							mu.Unlock()
							return
						}
					case <-time.After(testTimeout):
						mu.Lock()
						ok = false
						mu.Unlock()
						return
					}
				}
			}()
		}
		wg.Wait()
		if !ok {
			return false
		}
		last := g.nodes[0].waitData(3 * perSender)[3*perSender-1].Seq
		requireSameOrder(t, g.nodes, last)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
