package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amoeba/internal/netw/memnet"
)

// The invariant under test: on a fabric that drops nothing, no retransmission
// or NAK timer ever fires. A full history used to break it — the sequencer
// dropped the request it could not order and only the sender's RetryInterval
// timer re-drove it, once every HistorySize messages. The tests assert on the
// protocol's own counters, never on wall-clock time (see requireNoRetries).

// TestNoRetryOnLosslessFabric sends ten histories' worth of messages through
// a 3-member group in every shape that reaches the full-history path — from
// the sequencer's node and from a member's, one at a time, from 12 goroutines
// over all three nodes, and in SendMany bursts of 64; at resilience 0 and 1,
// with leases, and by the BB method; with the paper's 128-entry history and a
// tiny one — and requires zero request retries and zero NAKs over all
// endpoints, the same delivery order everywhere, and per-sender FIFO.
func TestNoRetryOnLosslessFabric(t *testing.T) {
	modes := []struct {
		name string
		mod  func(*Config)
	}{
		{"r0", func(c *Config) {}},
		{"r1", func(c *Config) { c.Resilience = 1 }},
		{"leases", leaseCfg},
		{"bb", func(c *Config) { c.Method = MethodBB }},
	}
	shapes := []struct {
		name string
		run  func(t *testing.T, g *group, total int) (streams map[string]int)
	}{
		{"sequential-from-sequencer", func(t *testing.T, g *group, total int) map[string]int {
			return sendSequential(t, g, 0, total)
		}},
		{"sequential-from-member", func(t *testing.T, g *group, total int) map[string]int {
			return sendSequential(t, g, 1, total)
		}},
		{"12-goroutines", sendConcurrent},
		{"bursts-from-sequencer", func(t *testing.T, g *group, total int) map[string]int {
			return sendBursts(t, g, 0, total)
		}},
		{"bursts-from-member", func(t *testing.T, g *group, total int) map[string]int {
			return sendBursts(t, g, 1, total)
		}},
	}
	for _, hist := range []int{8, 128} {
		for _, mode := range modes {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("hist%d/%s/%s", hist, mode.name, shape.name), func(t *testing.T) {
					g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
						noRetryCfg(c)
						c.HistorySize = hist
						mode.mod(c)
					})
					total := 10 * hist
					streams := shape.run(t, g, total)
					sent := 0
					for _, n := range streams {
						sent += n
					}
					ref := g.nodes[0].waitData(sent)
					requireSameOrder(t, g.nodes, ref[len(ref)-1].Seq)
					for i, nd := range g.nodes {
						requireStreamFIFO(t, i, nd.waitData(sent), streams)
					}
					requireNoRetries(t, g)
				})
			}
		}
	}
}

// TestBBRefusalKeepsPayload: a BB sender multicasts its data once and then
// waits for the short accept. A sequencer that refuses the message for lack
// of history room must hold on to the payload it already received: the
// message is ordered after the next status round, without the sender
// multicasting its data again and without the sequencer serving it as a
// retransmission. The third member only listens, so nothing but the
// solicited status reports can free the 8-entry history.
func TestBBRefusalKeepsPayload(t *testing.T) {
	g := newGroup(t, 3, memnet.Config{}, func(c *Config) {
		noRetryCfg(c)
		c.HistorySize = 8
		c.Method = MethodBB
	})
	const msgs = 40
	streams := sendSequential(t, g, 1, msgs)
	for i, nd := range g.nodes {
		requireStreamFIFO(t, i, nd.waitData(msgs), streams)
	}
	requireNoRetries(t, g)
	var retransmitted uint64
	for _, nd := range g.nodes {
		retransmitted += nd.ep.Stats().Retransmitted
	}
	if retransmitted != 0 {
		t.Fatalf("%d retransmissions served: a refused BB message lost its payload", retransmitted)
	}
	if st := g.nodes[0].ep.Stats(); st.StatusSolicits == 0 {
		t.Fatalf("sequencer never solicited status, so the full-history path was not reached: %+v", st)
	}
}

// streamPayload names message n of one sending stream ("<node>.<stream>").
func streamPayload(stream string, n int) []byte {
	return []byte(stream + ":" + strconv.Itoa(n))
}

// sendSequential sends total messages from node i, each after the previous
// one completed.
func sendSequential(t *testing.T, g *group, i, total int) map[string]int {
	t.Helper()
	stream := fmt.Sprintf("%d.0", i)
	for n := 0; n < total; n++ {
		if err := g.send(i, streamPayload(stream, n)); err != nil {
			t.Fatalf("send %d from node %d: %v", n, i, err)
		}
	}
	return map[string]int{stream: total}
}

// sendConcurrent spreads total messages over 12 goroutines, four per node,
// each sending its own stream one message at a time.
func sendConcurrent(t *testing.T, g *group, total int) map[string]int {
	t.Helper()
	const senders = 12
	per := (total + senders - 1) / senders
	streams := make(map[string]int, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		i := s % len(g.nodes)
		stream := fmt.Sprintf("%d.%d", i, s/len(g.nodes))
		streams[stream] = per
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				select {
				case err := <-g.sendAsync(i, streamPayload(stream, n)):
					if err != nil {
						t.Errorf("stream %s send %d: %v", stream, n, err)
						return
					}
				case <-time.After(testTimeout):
					t.Errorf("stream %s send %d timed out", stream, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return streams
}

// sendBursts sends total messages from node i in SendMany bursts of 64, each
// burst submitted once the previous one completed.
func sendBursts(t *testing.T, g *group, i, total int) map[string]int {
	t.Helper()
	const burst = 64
	stream := fmt.Sprintf("%d.0", i)
	for base := 0; base < total; base += burst {
		payloads := make([][]byte, burst)
		dones := make([]func(error), burst)
		errs := make(chan error, burst)
		for n := range payloads {
			payloads[n] = streamPayload(stream, base+n)
			dones[n] = func(e error) { errs <- e }
		}
		g.nodes[i].ep.SendMany(payloads, dones)
		for n := 0; n < burst; n++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("burst at %d from node %d: %v", base, i, err)
				}
			case <-time.After(testTimeout):
				t.Fatalf("burst at %d from node %d timed out with %d of %d complete", base, i, n, burst)
			}
		}
	}
	return map[string]int{stream: (total + burst - 1) / burst * burst}
}

// requireStreamFIFO asserts that node i delivered every stream's messages
// exactly once and in the order their sender submitted them.
func requireStreamFIFO(t *testing.T, i int, data []Delivery, streams map[string]int) {
	t.Helper()
	next := make(map[string]int, len(streams))
	for _, d := range data {
		stream, num, ok := strings.Cut(string(d.Payload), ":")
		n, err := strconv.Atoi(num)
		if !ok || err != nil {
			t.Fatalf("node %d delivered a foreign payload %q", i, d.Payload)
		}
		if n != next[stream] {
			t.Fatalf("node %d: stream %s delivered message %d, want %d (FIFO violated)", i, stream, n, next[stream])
		}
		next[stream]++
	}
	for stream, want := range streams {
		if next[stream] != want {
			t.Fatalf("node %d: stream %s delivered %d messages, want %d", i, stream, next[stream], want)
		}
	}
}
