package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"amoeba/internal/flip"
	"amoeba/internal/netw"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
)

// testTimeout bounds every blocking wait in the suite.
const testTimeout = 10 * time.Second

// newTestStack builds a FLIP stack with fast locate retries for tests.
func newTestStack(t *testing.T, station netw.Station) *flip.Stack {
	t.Helper()
	return flip.NewStack(flip.Config{
		Station:        station,
		Clock:          sim.NewRealClock(),
		LocateInterval: 5 * time.Millisecond,
	})
}

// newTestClock returns a wall clock for endpoint configs.
func newTestClock() sim.Clock { return sim.NewRealClock() }

// flipAddr names a group address.
func flipAddr(name string) flip.Address { return flip.AddressForName(name) }

// node is one member under test: a memnet station, a FLIP stack, and an
// endpoint, plus a recorder of everything delivered.
type node struct {
	t     *testing.T
	stack *flip.Stack
	tr    *FLIPTransport
	ep    *Endpoint
	addr  flip.Address

	mu         sync.Mutex
	deliveries []Delivery
	notify     chan struct{}
}

// group is a whole test group on one network.
type group struct {
	t     *testing.T
	net   *memnet.Network
	addr  flip.Address
	cfg   Config // template
	nodes []*node
}

// closeWait bounds how long a test group's cleanup waits for one endpoint to
// close.
const closeWait = 5 * time.Second

// newGroup builds a memnet network with a creator plus n-1 joiners. mod, if
// non-nil, adjusts the Config template before any endpoint starts.
func newGroup(t *testing.T, n int, netCfg memnet.Config, mod func(*Config)) *group {
	t.Helper()
	g := &group{
		t:    t,
		net:  memnet.New(netCfg),
		addr: flip.AddressForName("test-group"),
	}
	t.Cleanup(func() {
		// Close the endpoints too: their sync and probe timers would
		// otherwise tick on for the rest of the test binary's run. Each
		// close is waited for only so long: a test that panicked inside a
		// locked section left its endpoint's mutex held, and the cleanup
		// must return for the panic to be reported.
		for i, nd := range g.nodes {
			ep, closed := nd.ep, make(chan struct{})
			go func() { ep.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(closeWait):
				t.Errorf("member %d's endpoint did not close within %v: its mutex is held", i, closeWait)
			}
		}
		g.net.Close()
	})
	g.cfg = Config{
		Group:         g.addr,
		RetryInterval: 30 * time.Millisecond,
		NakDelay:      2 * time.Millisecond,
		SyncInterval:  50 * time.Millisecond,
		StatusTimeout: 30 * time.Millisecond,
		ResetTimeout:  40 * time.Millisecond,
	}
	if mod != nil {
		mod(&g.cfg)
	}
	for i := 0; i < n; i++ {
		g.addNode(i == 0)
	}
	return g
}

// addNode attaches one more member (creator when create is true, otherwise a
// joiner, waiting for the join to complete).
func (g *group) addNode(create bool) *node {
	g.t.Helper()
	station, err := g.net.Attach("node")
	if err != nil {
		g.t.Fatalf("Attach: %v", err)
	}
	stack := flip.NewStack(flip.Config{
		Station:        station,
		Clock:          sim.NewRealClock(),
		LocateInterval: 5 * time.Millisecond,
	})
	nd := &node{t: g.t, stack: stack, addr: stack.AllocAddress(), notify: make(chan struct{}, 4096)}
	cfg := g.cfg
	cfg.Self = nd.addr
	cfg.Clock = sim.NewRealClock()
	cfg.OnDeliver = func(d Delivery) {
		nd.mu.Lock()
		nd.deliveries = append(nd.deliveries, d)
		nd.mu.Unlock()
		select {
		case nd.notify <- struct{}{}:
		default:
		}
	}
	nd.tr = NewFLIPTransport(stack, nd.addr, g.addr)
	cfg.Transport = nd.tr

	if create {
		ep, err := NewCreator(cfg)
		if err != nil {
			g.t.Fatalf("NewCreator: %v", err)
		}
		nd.ep = ep
		nd.tr.Bind(ep)
		ep.Start()
	} else {
		done := make(chan error, 1)
		ep, err := NewJoiner(cfg, func(e error) { done <- e })
		if err != nil {
			g.t.Fatalf("NewJoiner: %v", err)
		}
		nd.ep = ep
		nd.tr.Bind(ep)
		ep.Start()
		select {
		case e := <-done:
			if e != nil {
				g.t.Fatalf("join: %v", e)
			}
		case <-time.After(testTimeout):
			g.t.Fatal("join timed out")
		}
	}
	g.nodes = append(g.nodes, nd)
	return nd
}

// send performs a blocking send from node i.
func (g *group) send(i int, payload []byte) error {
	g.t.Helper()
	done := make(chan error, 1)
	g.nodes[i].ep.Send(payload, func(e error) { done <- e })
	select {
	case e := <-done:
		return e
	case <-time.After(testTimeout):
		g.t.Fatalf("send from node %d timed out", i)
		return nil
	}
}

// sendAsync starts a send and returns its completion channel.
func (g *group) sendAsync(i int, payload []byte) chan error {
	done := make(chan error, 1)
	g.nodes[i].ep.Send(payload, func(e error) { done <- e })
	return done
}

// waitDeliveries blocks until node i has at least n deliveries.
func (n *node) waitDeliveries(count int) []Delivery {
	n.t.Helper()
	deadline := time.After(testTimeout)
	for {
		n.mu.Lock()
		if len(n.deliveries) >= count {
			out := make([]Delivery, len(n.deliveries))
			copy(out, n.deliveries)
			n.mu.Unlock()
			return out
		}
		n.mu.Unlock()
		select {
		case <-n.notify:
		case <-deadline:
			n.mu.Lock()
			got := len(n.deliveries)
			n.mu.Unlock()
			n.t.Fatalf("timed out waiting for %d deliveries, have %d", count, got)
		}
	}
}

// dataDeliveries filters to application data.
func dataOf(ds []Delivery) []Delivery {
	var out []Delivery
	for _, d := range ds {
		if d.Kind == KindData {
			out = append(out, d)
		}
	}
	return out
}

// waitData blocks until node has n data deliveries.
func (n *node) waitData(count int) []Delivery {
	n.t.Helper()
	deadline := time.After(testTimeout)
	for {
		n.mu.Lock()
		data := dataOf(n.deliveries)
		n.mu.Unlock()
		if len(data) >= count {
			return data
		}
		select {
		case <-n.notify:
		case <-deadline:
			n.t.Fatalf("timed out waiting for %d data deliveries, have %d", count, len(data))
		}
	}
}

// crash makes a node vanish without protocol goodbye.
func (n *node) crash() {
	n.ep.Close()
	n.tr.Unbind()
}

// noRetryCfg lengthens the retry and NAK delays of a fault-free test far
// beyond anything the test waits for, so that a timer firing (and counted by
// requireNoRetries) is a wakeup the protocol missed — never a goroutine
// descheduled for a few milliseconds on a busy CI host.
func noRetryCfg(c *Config) {
	c.RetryInterval = time.Second
	c.NakDelay = time.Second
}

// requireNoRetries asserts the fault-free invariant: while the network has
// dropped nothing, no endpoint's request-retry or NAK timer has fired. Every
// such firing on a lossless fabric is a wakeup the protocol missed.
func requireNoRetries(t *testing.T, g *group) {
	t.Helper()
	if d := g.net.Dropped(); d != 0 {
		t.Logf("network dropped %d frames: retry counters not asserted", d)
		return
	}
	for i, nd := range g.nodes {
		if st := nd.ep.Stats(); st.RequestRetries != 0 || st.NaksSent != 0 {
			t.Errorf("node %d: %d request retries, %d NAKs on a lossless fabric\n stats=%+v\n seq=%s",
				i, st.RequestRetries, st.NaksSent, st, g.nodes[0].ep.DebugSnapshot())
		}
	}
}

// requireSameOrder asserts that all nodes delivered identical sequences over
// their common seq range, after each has delivered through seq upTo.
// Deliveries are aligned by Seq because members that joined later begin their
// streams later.
func requireSameOrder(t *testing.T, nodes []*node, upTo uint32) {
	t.Helper()
	perNode := make([]map[uint32]Delivery, len(nodes))
	lo := uint32(0)
	for i, nd := range nodes {
		ds := nd.waitForSeq(upTo)
		m := make(map[uint32]Delivery, len(ds))
		for _, d := range ds {
			m[d.Seq] = d
		}
		perNode[i] = m
		if first := ds[0].Seq; first > lo {
			lo = first
		}
	}
	for s := lo; s <= upTo; s++ {
		ref, ok := perNode[0][s]
		if !ok {
			t.Fatalf("node 0 missing delivery for seq %d", s)
		}
		for i := 1; i < len(perNode); i++ {
			got, ok := perNode[i][s]
			if !ok {
				t.Fatalf("node %d missing delivery for seq %d", i, s)
			}
			if err := sameDelivery(ref, got); err != nil {
				t.Fatalf("node %d delivery at seq %d differs: %v\n ref=%+v\n got=%+v",
					i, s, err, ref, got)
			}
		}
	}
}

// waitForSeq blocks until the node has delivered through seq upTo and
// returns everything delivered.
func (n *node) waitForSeq(upTo uint32) []Delivery {
	n.t.Helper()
	deadline := time.After(testTimeout)
	for {
		n.mu.Lock()
		if len(n.deliveries) > 0 && n.deliveries[len(n.deliveries)-1].Seq >= upTo {
			out := make([]Delivery, len(n.deliveries))
			copy(out, n.deliveries)
			n.mu.Unlock()
			return out
		}
		var last uint32
		if len(n.deliveries) > 0 {
			last = n.deliveries[len(n.deliveries)-1].Seq
		}
		n.mu.Unlock()
		select {
		case <-n.notify:
		case <-deadline:
			n.t.Fatalf("timed out waiting for seq %d, at %d", upTo, last)
		}
	}
}

func sameDelivery(a, b Delivery) error {
	if a.Kind != b.Kind {
		return fmt.Errorf("kind %v vs %v", a.Kind, b.Kind)
	}
	if a.Seq != b.Seq {
		return fmt.Errorf("seq %d vs %d", a.Seq, b.Seq)
	}
	if a.Sender != b.Sender {
		return fmt.Errorf("sender %d vs %d", a.Sender, b.Sender)
	}
	if string(a.Payload) != string(b.Payload) {
		return fmt.Errorf("payload %q vs %q", a.Payload, b.Payload)
	}
	return nil
}
