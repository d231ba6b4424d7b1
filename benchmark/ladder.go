package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"amoeba"
	"amoeba/internal/flip"
	"amoeba/internal/netw"
	"amoeba/internal/netw/memnet"
	"amoeba/internal/sim"
	"amoeba/kv"
	"amoeba/shared"
	"amoeba/wal"
)

// The layer ladder times each layer's public calls from outside, bottom to
// top, with one caller on an idle fabric and 24-byte payloads: the paper's
// per-layer breakdown of a send (user / group / FLIP / network), on the live
// stack. Each rung makes a fixed number of calls, each call a span.

const (
	ladderCalls   = 20000 // per rung
	ladderPayload = 24
	// Rungs that ride a group's ordered send stall 50 ms on a few calls in a
	// thousand, so their mean is 40× their median; they get a twentieth of the
	// calls to keep the ladder within seconds. A 16-message burst stalls more
	// often still and an fsync costs milliseconds; those get a two-hundredth.
	slowRungDiv  = 20
	burstRungDiv = 200
	syncRungDiv  = 200
	codecBlock   = 64 // codec round trips per timed sample: one is too short to time
)

// rung is one ladder measurement.
type rung struct {
	lat    hist
	allocs float64 // heap objects per call, process-wide
	log    *spanLog
}

// ladder accumulates rungs; the first error sticks.
type ladder struct {
	ctx     context.Context
	epoch   time.Time
	calls   int
	payload []byte
	rungs   map[string]*rung
	logs    []*spanLog
	err     error
}

// climb measures one rung: call runs `calls` times (at least ten) after a
// tenth as many unrecorded ones (routes located, pools filled). call returns
// when the work it times ended, or the zero time for "when call returned".
func (l *ladder) climb(name string, calls int, call func() (time.Time, error)) {
	if l.err != nil {
		return
	}
	calls = max(calls, 10)
	r := &rung{log: newSpanLog("ladder/"+name, l.epoch, rungSpanCap)}
	var objects uint64
	for i := -calls / 10; i < calls; i++ {
		if i == 0 {
			objects = readUsage().allocs
		}
		t0 := time.Now()
		t1, err := call()
		if err != nil {
			l.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		if i < 0 {
			continue
		}
		if t1.IsZero() {
			t1 = time.Now()
		}
		r.lat.record(uint64(t1.Sub(t0)))
		r.log.add(name, t0, t1)
	}
	r.allocs = float64(readUsage().allocs-objects) / float64(calls)
	r.log.close()
	l.rungs[name] = r
	l.logs = append(l.logs, r.log)
}

// blocking adapts an ordinary blocking call to a rung.
func blocking(f func() error) func() (time.Time, error) {
	return func() (time.Time, error) { return time.Time{}, f() }
}

func (l *ladder) p50us(name string) float64 { return l.rungs[name].lat.quantile(0.5) / 1e3 }

func runLadder(ctx context.Context, cfg config, epoch time.Time) (map[string]float64, []*spanLog, error) {
	l := &ladder{ctx: ctx, epoch: epoch, calls: ladderCalls / shrink, payload: make([]byte, ladderPayload), rungs: map[string]*rung{}}
	l.network()
	l.groups()
	l.log(cfg.out)
	l.codec()
	l.clients(cfg)
	if l.err != nil {
		return nil, nil, l.err
	}
	member := l.rungs["core.member_send"]
	v := map[string]float64{
		"memnet.frame_p50_us":          l.p50us("memnet.frame"),
		"flip.unicast_p50_us":          l.p50us("flip.unicast"),
		"rpc.null_call_p50_us":         l.p50us("rpc.null_call"),
		"rpc.null_call_allocs":         l.rungs["rpc.null_call"].allocs,
		"core.seq_send_p50_us":         l.p50us("core.seq_send"),
		"core.member_send_p50_us":      l.p50us("core.member_send"),
		"core.member_send_mean_us":     member.lat.mean() / 1e3,
		"core.member_send_stall_share": member.lat.shareAtLeast(uint64(stallCutoff)),
		"core.member_send_allocs":      member.allocs,
		"core.send_batch16_p50_us":     l.p50us("core.send_batch16"),
		"shared.submit_p50_us":         l.p50us("shared.submit"),
		"wal.append_p50_us":            l.p50us("wal.append"),
		"wal.append_sync_p50_us":       l.p50us("wal.append_sync"),
		"kv.codec.roundtrip_ns":        l.rungs["kv.codec.roundtrip"].lat.quantile(0.5) / codecBlock,
		"kv.codec.roundtrip_allocs":    l.rungs["kv.codec.roundtrip"].allocs / codecBlock,
		"kv.client.local_p50_us":       l.p50us("kv.client.local"),
		"kv.client.direct_p50_us":      l.p50us("kv.client.direct"),
		"kv.client.forwarded_p50_us":   l.p50us("kv.client.forwarded"),
		"kv.client.leased_p50_us":      l.p50us("kv.client.leased"),
		"kv.client.stale_p50_us":       l.p50us("kv.client.stale"),
	}
	// Self times: what a layer adds to the one below it. A FLIP unicast is
	// one frame; a null RPC and a member's ordered send are each two
	// unicasts (there and back); a replica submit is one member send; a
	// local kv put is one submit.
	v["flip.self_us"] = v["flip.unicast_p50_us"] - v["memnet.frame_p50_us"]
	v["rpc.self_us"] = v["rpc.null_call_p50_us"] - 2*v["flip.unicast_p50_us"]
	v["core.self_us"] = v["core.member_send_p50_us"] - 2*v["flip.unicast_p50_us"]
	v["shared.self_us"] = v["shared.submit_p50_us"] - v["core.member_send_p50_us"]
	v["kv.self_us"] = v["kv.client.local_p50_us"] - v["shared.submit_p50_us"]
	return v, l.logs, nil
}

// network climbs the rungs below the group layer: a raw frame, a FLIP
// unicast, a null RPC. The first two are one-way: sent here, timed on arrival
// in the receiver's handler.
func (l *ladder) network() {
	if l.err != nil {
		return
	}
	net := memnet.NewReliable()
	defer net.Close()
	attach := func(name string) netw.Station {
		st, err := net.Attach(name)
		if err != nil && l.err == nil {
			l.err = err
		}
		return st
	}
	a, b, fa, fb := attach("a"), attach("b"), attach("fa"), attach("fb")
	if l.err != nil {
		return
	}
	arrived := make(chan time.Time, 1)
	a.SetHandler(func(netw.Frame) {})
	b.SetHandler(func(netw.Frame) { arrived <- time.Now() })
	l.climb("memnet.frame", l.calls, func() (time.Time, error) {
		if err := a.Send(b.ID(), l.payload); err != nil {
			return time.Time{}, err
		}
		return <-arrived, nil
	})

	sa := flip.NewStack(flip.Config{Station: fa, Clock: sim.NewRealClock()})
	sb := flip.NewStack(flip.Config{Station: fb, Clock: sim.NewRealClock()})
	defer sa.Close()
	defer sb.Close()
	src, dst := sa.AllocAddress(), sb.AllocAddress()
	sa.Register(src, func(flip.Message) {})
	sb.Register(dst, func(flip.Message) { arrived <- time.Now() })
	l.climb("flip.unicast", l.calls, func() (time.Time, error) {
		if err := sa.Send(src, dst, l.payload); err != nil {
			return time.Time{}, err
		}
		return <-arrived, nil
	})

	mem := amoeba.NewMemoryNetwork()
	defer mem.Close()
	ks, kc := l.kernel(mem, "rpc-server"), l.kernel(mem, "rpc-client")
	if l.err != nil {
		return
	}
	srv, err := ks.NewRPCServer(0, func(req []byte) ([]byte, amoeba.Addr) { return req, 0 })
	if err != nil {
		l.err = err
		return
	}
	defer srv.Close()
	cl, err := kc.NewRPCClient()
	if err != nil {
		l.err = err
		return
	}
	defer cl.Close()
	l.climb("rpc.null_call", l.calls, blocking(func() error {
		_, err := cl.Call(l.ctx, srv.Addr(), l.payload)
		return err
	}))
}

func (l *ladder) kernel(net *amoeba.MemoryNetwork, name string) *amoeba.Kernel {
	k, err := net.NewKernel(name)
	if err != nil && l.err == nil {
		l.err = err
	}
	return k
}

// nullSM is a state machine with no state: a replica submit then costs what
// shared adds to the group send, and nothing else.
type nullSM struct{}

func (nullSM) Apply([]byte)              {}
func (nullSM) Snapshot() ([]byte, error) { return nil, nil }
func (nullSM) Restore([]byte) error      { return nil }

// groups climbs the ordering rungs on 3-member groups: a send from the
// sequencer's node, from a member's, a 16-message burst, and a replica submit.
func (l *ladder) groups() {
	if l.err != nil {
		return
	}
	net := amoeba.NewMemoryNetwork()
	defer net.Close()
	ctx, cancel := context.WithCancel(l.ctx)
	defer cancel()
	var ks [3]*amoeba.Kernel
	var gs [3]*amoeba.Group
	var rs [3]*shared.Replica
	for i := range ks {
		if ks[i] = l.kernel(net, fmt.Sprintf("group-%d", i)); l.err != nil {
			return
		}
		if i == 0 {
			gs[i], l.err = ks[i].CreateGroup(ctx, "ladder", amoeba.GroupOptions{})
		} else {
			gs[i], l.err = ks[i].JoinGroup(ctx, "ladder", amoeba.GroupOptions{})
		}
		if l.err != nil {
			return
		}
		defer gs[i].Close()
		// Every member consumes its deliveries, as an application would.
		go func(g *amoeba.Group) {
			for {
				if _, err := g.Receive(ctx); err != nil {
					return
				}
			}
		}(gs[i])
	}
	burst := make([][]byte, batchKeys)
	for i := range burst {
		burst[i] = l.payload
	}
	l.climb("core.seq_send", l.calls/slowRungDiv, blocking(func() error { return gs[0].Send(ctx, l.payload) }))
	l.climb("core.member_send", l.calls/slowRungDiv, blocking(func() error { return gs[1].Send(ctx, l.payload) }))
	l.climb("core.send_batch16", l.calls/burstRungDiv, blocking(func() error { return gs[1].SendBatch(ctx, burst) }))

	for i := range rs {
		if i == 0 {
			rs[i], l.err = shared.Create(ctx, ks[i], "ladder-replica", nullSM{}, amoeba.GroupOptions{})
		} else {
			rs[i], l.err = shared.Join(ctx, ks[i], "ladder-replica", nullSM{}, amoeba.GroupOptions{})
		}
		if l.err != nil {
			return
		}
		defer rs[i].Close()
	}
	l.climb("shared.submit", l.calls/slowRungDiv, blocking(func() error { return rs[1].Submit(ctx, l.payload) }))
}

// log climbs the write-ahead log's append, without and with an fsync.
func (l *ladder) log(scratch string) {
	for _, r := range []struct {
		name  string
		sync  bool
		calls int
	}{{"wal.append", false, l.calls}, {"wal.append_sync", true, l.calls / syncRungDiv}} {
		if l.err != nil {
			return
		}
		if l.err = os.MkdirAll(scratch, 0o755); l.err != nil {
			return
		}
		dir, err := os.MkdirTemp(scratch, "ladder-wal-")
		if err != nil {
			l.err = err
			return
		}
		defer os.RemoveAll(dir)
		w, err := wal.Open(dir, wal.Options{Sync: r.sync})
		if err != nil {
			l.err = err
			return
		}
		defer w.Close() // the error that matters is Append's, returned per call
		entry := []wal.Entry{{Payload: l.payload}}
		l.climb(r.name, r.calls, blocking(func() error {
			entry[0].Seq++
			return w.Append(entry)
		}))
	}
}

// codec climbs the kv access protocol's encode and decode of a Put.
func (l *ladder) codec() {
	var val [valueSize]byte
	req := &kv.Request{Op: kv.ReqPut, ID: 1, Key: "key-00000", Val: fillValue(&val, "key-00000", 0, 1)}
	l.climb("kv.codec.roundtrip", l.calls/codecBlock, blocking(func() error {
		for i := 0; i < codecBlock; i++ {
			if _, err := kv.DecodeRequest(kv.EncodeRequest(req)); err != nil {
				return err
			}
		}
		return nil
	}))
}

// clients climbs the kv client's access paths, each on the workload cluster
// that exercises it: a local put where the caller's node is a member of the
// key's shard group, a put over one RPC hop, a put forwarded by an entry node,
// and a read under a lease and at bounded staleness.
func (l *ladder) clients(cfg config) {
	if l.err != nil {
		return
	}
	keys := keyTable()
	var val [valueSize]byte
	n := uint64(0)
	put := func(cl *kv.Client, key string) func() (time.Time, error) {
		return blocking(func() error {
			n++
			return cl.Put(l.ctx, key, fillValue(&val, key, 0, n))
		})
	}
	// keyOn finds a key of the given shard.
	keyOn := func(c *cluster, shard int) string {
		for _, k := range keys {
			if c.stores[0].ShardFor(k) == shard {
				return k
			}
		}
		return keys[0] // 4096 keys over 4 shards: every shard has keys
	}
	withCluster := func(name string, f func(c *cluster)) {
		if l.err != nil {
			return
		}
		c, err := boot(l.ctx, specByName(name), nil, cfg.out)
		if err != nil {
			l.err = err
			return
		}
		defer c.close()
		f(c)
	}

	withCluster("ordered-put", func(c *cluster) {
		// Shard 0 is sequenced at node 0; the caller sits on node 1.
		l.climb("kv.client.local", l.calls/slowRungDiv, put(c.clients[0], keyOn(c, 0)))
	})
	withCluster("proxied-mix", func(c *cluster) {
		// Shard 2 lives on nodes 2 and 3: a client bound to node 0 reaches it
		// over one RPC hop, a ring-less one entering at node 0 is forwarded.
		bound := c.stores[0].NewClient()
		defer bound.Close()
		l.climb("kv.client.direct", l.calls/slowRungDiv, put(bound, keyOn(c, 2)))
		l.climb("kv.client.forwarded", l.calls/slowRungDiv, put(c.clients[0], keyOn(c, 2)))
	})
	withCluster("leased-read", func(c *cluster) {
		cl, key := c.clients[0], keyOn(c, 0)
		if l.err = cl.Put(l.ctx, key, fillValue(&val, key, 0, 1)); l.err != nil {
			return
		}
		// Leases arm on the sequencer's sync ticks, within about a second.
		req := &kv.Request{Op: kv.ReqGet, Keys: []string{key}}
		for deadline := time.Now().Add(5 * time.Second); ; {
			resp, err := cl.Do(l.ctx, req)
			if err != nil {
				l.err = err
				return
			}
			if resp.ReadPath == kv.ReadLease {
				break
			}
			if time.Now().After(deadline) {
				l.err = fmt.Errorf("kv.client.leased: no lease after 5s")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		l.climb("kv.client.leased", l.calls, blocking(func() error {
			_, _, err := cl.Get(l.ctx, key)
			return err
		}))
		l.climb("kv.client.stale", l.calls, blocking(func() error {
			_, _, _, err := cl.StaleGet(l.ctx, key, time.Second)
			return err
		}))
	})
}
