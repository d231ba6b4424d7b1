package main

// The layers' own event counts, read through their public Stats calls.
const (
	cLocal = iota // kv.Client.Stats of the callers' clients
	cRemote
	cRoutingUpdates
	cLeaseReads
	cServed // kv.Service.Stats
	cForwarded
	cScattered
	cSvcErrors
	cLeased // kv.Store.LeaseStats
	cLeaseFallback
	cOrdered // shared.Replica.Stats: the core endpoint's counts
	cBatches
	cBatchedMsgs
	cRetries
	cAppends // shared.Replica.DurabilityStats().Log: the wal's counts
	cEntries
	cSyncs
	cCheckpoints
	numCounters
)

// counters is a reading of every layer's counts summed across the cluster,
// taken before and after a measurement; the per-layer metrics are ratios of
// the differences.
type counters struct {
	n        [numCounters]uint64
	maxBatch uint64 // largest ordering batch so far: a high-water mark, not a count
}

func (c *cluster) counters() counters {
	var r counters
	for _, cl := range c.clients {
		s := cl.Stats()
		r.n[cLocal] += s.LocalOps
		r.n[cRemote] += s.RemoteOps
		r.n[cRoutingUpdates] += s.RoutingUpdates
		r.n[cLeaseReads] += s.LeaseReads
	}
	for _, svc := range c.svcs {
		s := svc.Stats()
		r.n[cServed] += s.Served
		r.n[cForwarded] += s.Forwarded
		r.n[cScattered] += s.Scattered
		r.n[cSvcErrors] += s.Errors
	}
	for _, st := range c.stores {
		leased, fallback, _, _ := st.LeaseStats()
		r.n[cLeased] += leased
		r.n[cLeaseFallback] += fallback
		for i := 0; i < shards; i++ {
			rep := st.Replica(i)
			if rep == nil {
				continue
			}
			g := rep.Stats()
			r.n[cOrdered] += g.Ordered
			r.n[cBatches] += g.OrderedBatches
			r.n[cBatchedMsgs] += g.BatchedMsgs
			r.n[cRetries] += g.Retries
			if g.MaxBatchMsgs > r.maxBatch {
				r.maxBatch = g.MaxBatchMsgs
			}
			w := rep.DurabilityStats().Log
			r.n[cAppends] += w.Appends
			r.n[cEntries] += w.Entries
			r.n[cSyncs] += w.Syncs
			r.n[cCheckpoints] += w.Checkpoints
		}
	}
	return r
}

// ratio is a/b, or 0 when the layer saw no such events on this workload.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics derives the client, kv, core, wal and runtime metrics of one
// (untraced) measurement from the counter readings around it.
func layerMetrics(m *measurement, callers []*caller, before, after counters, diskMB float64) map[string]float64 {
	var all hist
	var reads uint64
	for w := range m.wins {
		all.merge(&m.wins[w].reads)
		all.merge(&m.wins[w].writes)
		reads += m.wins[w].reads.n
	}
	var d [numCounters]uint64
	for i := range d {
		d[i] = after.n[i] - before.n[i]
	}
	attempted, failed := attempts(callers)
	ops := m.totalOps()
	first, last := m.first, m.last
	return map[string]float64{
		"client.p50_us":        m.p50us(allCalls),
		"client.write_p50_us":  m.p50us(func(w *window) hist { return w.writes }),
		"client.read_p50_us":   m.p50us(func(w *window) hist { return w.reads }),
		"client.mean_us":       all.mean() / 1e3,
		"client.p90_us":        all.quantile(0.90) / 1e3,
		"client.p99_us":        all.quantile(0.99) / 1e3,
		"client.p999_us":       all.quantile(0.999) / 1e3,
		"client.max_us":        float64(all.max) / 1e3,
		"client.stall_share":   all.shareAtLeast(uint64(stallCutoff)),
		"client.failed_ops":    float64(failed),
		"client.attempted_ops": float64(attempted),

		"kv.client.local_share":      ratio(d[cLocal], d[cLocal]+d[cRemote]),
		"kv.client.lease_read_share": ratio(d[cLeaseReads], reads),
		"kv.client.routing_updates":  float64(d[cRoutingUpdates]),
		// A forwarded request is served by the node it lands on, so this is
		// the share of served requests that took the extra hop.
		"kv.service.forwarded_share": ratio(d[cForwarded], d[cServed]),
		"kv.service.scattered":       float64(d[cScattered]),
		"kv.service.errors":          float64(d[cSvcErrors]),
		"kv.lease.fallback_share":    ratio(d[cLeaseFallback], d[cLeased]+d[cLeaseFallback]),

		"core.msgs_per_op": ratio(d[cOrdered], ops),
		// Messages per ordering request: 1 when nothing coalesces.
		"core.batch_fill":      ratio(d[cOrdered], d[cOrdered]-d[cBatchedMsgs]+d[cBatches]),
		"core.batched_share":   ratio(d[cBatchedMsgs], d[cOrdered]),
		"core.max_batch":       float64(after.maxBatch),
		"core.retries_per_kop": 1000 * ratio(d[cRetries], ops),

		"wal.appends_per_op":     ratio(d[cAppends], ops),
		"wal.entries_per_append": ratio(d[cEntries], d[cAppends]),
		"wal.syncs_per_op":       ratio(d[cSyncs], ops),
		"wal.checkpoints":        float64(d[cCheckpoints]),
		"wal.disk_mb":            diskMB,

		"runtime.cpu_us_per_op": float64((last.cpu - first.cpu).Microseconds()) / float64(ops),
		"runtime.gc_cycles":     float64(last.gcCycles - first.gcCycles),
		"runtime.gc_pause_ms":   float64(m.gcPause.Microseconds()) / 1e3,
		"runtime.goroutines":    float64(m.goroutines),
		"runtime.peak_rss_mb":   float64(last.maxRSSBytes) / (1 << 20),
	}
}
