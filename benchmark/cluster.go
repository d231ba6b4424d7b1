package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"amoeba"
	"amoeba/kv"
	"amoeba/obs"
)

// numClients is the closed-loop caller count. kv.Client.Do blocks like the
// paper's SendToGroup, so callers form a closed loop; the sandbox has two
// cores, and with one caller per core throughput repeats within a few percent
// where eight callers ranged 51k–70k op/s.
const numClients = 2

// resultWindow keeps the replicated dedup window small enough that the
// warm-up fills it: live heap then does not grow with throughput during
// measurement.
const resultWindow = 1024

// spec describes one workload: its cluster shape, traffic mix and warm-up.
type spec struct {
	name        string
	why         string
	nodes       int
	replication int // 0: every node hosts every shard
	leases      bool
	durable     bool
	proxied     bool // a kv.Service per node, ring-less kv.Dial clients entering at node 0
	mix         []mixEntry
	warmup      int  // calls before measurement, summed over clients
	ladder      bool // the traced run also climbs the layer ladder
}

const shards = 4

var specs = []*spec{
	{
		name:  "ordered-put",
		why:   "every op is one round of internal/core total ordering on 3-member groups: no RPC, WAL or leases",
		nodes: 3, mix: []mixEntry{{opPut, 90}, {opGet, 10}}, warmup: 10000, ladder: true,
	},
	{
		name:  "leased-read",
		why:   "95% of ops are lease reads that bypass internal/core; the 5% writes carry the lease tax",
		nodes: 3, leases: true, mix: []mixEntry{{opGet, 95}, {opPut, 5}}, warmup: 300000,
	},
	{
		name:  "durable-batch",
		why:   "BatchPut(16) through core batching plus wal append and checkpoints; control for single-send claims",
		nodes: 3, durable: true, mix: []mixEntry{{opBatchPut, 90}, {opGet, 10}}, warmup: 600,
	},
	{
		name:  "proxied-mix",
		why:   "ring-less clients over rpc, flip, codec, forwarding and 2PC on 2-member groups; control for core claims",
		nodes: 4, replication: 2, proxied: true,
		mix:    []mixEntry{{opPut, 45}, {opGet, 45}, {opMGet, 5}, {opTxn, 5}},
		warmup: 20000,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// cluster is one booted in-process store with its callers' clients.
type cluster struct {
	spec    *spec
	net     *amoeba.MemoryNetwork
	stores  []*kv.Store
	svcs    []*kv.Service
	clients []*kv.Client
	dataDir string
}

// boot starts sp's cluster on a fresh memory network. hub, when non-nil,
// wires every group, WAL and client into one observability hub (the traced
// pass). scratch is where a durable store keeps its logs.
func boot(ctx context.Context, sp *spec, hub *obs.Hub, scratch string) (_ *cluster, err error) {
	c := &cluster{spec: sp, net: amoeba.NewMemoryNetwork()}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	kernels := make([]*amoeba.Kernel, sp.nodes)
	for i := range kernels {
		if kernels[i], err = c.net.NewKernel(fmt.Sprintf("node-%d", i)); err != nil {
			return nil, err
		}
		kernels[i].RegisterObs(hub)
	}
	opts := kv.Options{
		Shards:       shards,
		Replication:  sp.replication,
		ResultWindow: resultWindow,
		Leases:       sp.leases,
		Group:        amoeba.GroupOptions{Obs: hub},
	}
	if sp.durable {
		if err = os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		if c.dataDir, err = os.MkdirTemp(scratch, "wal-"); err != nil {
			return nil, err
		}
		// WALSync stays false: appends reach the OS (process-crash
		// durability). fsync on this disk has a p50 of 2.8–3.4 ms from run to
		// run, which would make the workload a disk benchmark.
		opts.DataDir = c.dataDir
	}
	if c.stores, err = kv.Bootstrap(ctx, kernels, "bench", opts); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	if !sp.proxied {
		// Callers sit on nodes 1 and 2: a quarter of the shards are sequenced
		// at each caller's own node, the rest reach it as a member.
		for i := 0; i < numClients; i++ {
			c.clients = append(c.clients, c.stores[1+i%(sp.nodes-1)].NewClient())
		}
		return c, nil
	}
	for _, s := range c.stores {
		svc, err := kv.NewService(s)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		c.svcs = append(c.svcs, svc)
	}
	for i := 0; i < numClients; i++ {
		k, err := c.net.NewKernel(fmt.Sprintf("caller-%d", i))
		if err != nil {
			return nil, err
		}
		cl, err := kv.Dial(k, "bench", kv.DialOptions{Node: 0, Obs: hub})
		if err != nil {
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	// A Service's Close waits out its routing watcher's poll; close them side
	// by side so a four-node teardown costs one poll, not four.
	var wg sync.WaitGroup
	for _, svc := range c.svcs {
		wg.Add(1)
		go func(svc *kv.Service) {
			defer wg.Done()
			svc.Close()
		}(svc)
	}
	wg.Wait()
	for _, s := range c.stores {
		s.Close()
	}
	c.net.Close()
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

// preload writes every key once, 64 pairs to a BatchPut.
func (c *cluster) preload(ctx context.Context, keys []string) error {
	const batch = 64
	var buf [batch][valueSize]byte
	pairs := make([]kv.Pair, batch)
	for base := 0; base < len(keys); base += batch {
		for j := range pairs {
			k := keys[base+j]
			pairs[j] = kv.Pair{Key: k, Val: fillValue(&buf[j], k, preloadWriter, 0)}
		}
		if err := c.clients[0].BatchPut(ctx, pairs); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// diskMB is the size of the durable store's logs and checkpoints.
func (c *cluster) diskMB() float64 {
	if c.dataDir == "" {
		return 0
	}
	var total int64
	filepath.Walk(c.dataDir, func(_ string, info os.FileInfo, err error) error {
		// Segments are deleted by checkpoints while we walk; a vanished file
		// simply no longer counts.
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
