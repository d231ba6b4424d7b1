package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"amoeba/kv"
)

const (
	batchKeys   = 16 // pairs per BatchPut call
	mgetKeys    = 4
	txnReads    = 2
	txnWrites   = 2
	stallCutoff = 10 * time.Millisecond // a call this slow sat out a protocol timer
)

// caller is one closed-loop client goroutine's state. Everything a call needs
// is allocated here, before timing starts: the loop itself allocates nothing,
// so allocs_per_op and GC pacing belong to the program under test.
type caller struct {
	id     int
	cl     *kv.Client
	keys   []string
	stream []op
	pos    int

	counter   uint64   // writes issued so far; stamped into each value
	lastWrite []uint64 // per key: counter of this caller's last acknowledged write
	// maxSeen is the highest counter read back per writer; it must not
	// exceed what that writer issued.
	maxSeen [preloadWriter + 1]uint64

	req     kv.Request
	reads   [mgetKeys]string
	pairs   [batchKeys]kv.Pair
	writes  [txnWrites]kv.TxnWrite
	written [batchKeys]int // key indices of the call's writes
	vals    [batchKeys][valueSize]byte

	attempted uint64
	failed    uint64
	firstErr  error
	violation string // first wrong output seen

	wins []window
	span *spanLog // non-nil in the traced pass
}

// window holds what completed in one measurement window.
type window struct {
	ops           uint64 // keys for BatchPut, 1 for every other call
	reads, writes hist   // per-call latency, ns
}

func newCallers(c *cluster, seed int64, keys []string) []*caller {
	callers := make([]*caller, len(c.clients))
	for i, cl := range c.clients {
		callers[i] = &caller{
			id: i, cl: cl, keys: keys,
			stream:    genStream(c.spec.name, seed, i, c.spec.mix),
			lastWrite: make([]uint64, len(keys)),
		}
	}
	return callers
}

func (c *caller) wrong(format string, args ...any) {
	if c.violation == "" {
		c.violation = fmt.Sprintf(format, args...)
	}
}

// nextValue stamps the call's j-th write: a fresh unique value for key k.
func (c *caller) nextValue(j, k int) []byte {
	c.counter++
	c.written[j] = k
	return fillValue(&c.vals[j], c.keys[k], c.id, c.counter)
}

// acked records that the call's first n writes were acknowledged; counters
// were handed out in order, so write j carried counter-n+1+j.
func (c *caller) acked(n int) {
	for j := 0; j < n; j++ {
		c.lastWrite[c.written[j]] = c.counter - uint64(n-1-j)
	}
}

// checkRead verifies one value read back: every key was preloaded and nothing
// deletes, so it must be present and must be a value written to that key.
func (c *caller) checkRead(key string, val []byte, found bool) {
	if !found {
		c.wrong("read of %s: absent, but every key is preloaded", key)
		return
	}
	w, n, ok := parseValue(val, key)
	if !ok || w >= len(c.maxSeen) {
		c.wrong("read of %s: %q was never written to it", key, val)
		return
	}
	if n > c.maxSeen[w] {
		c.maxSeen[w] = n
	}
}

// step issues the next op of the stream and checks its reply. It returns the
// op's kind and how many ops it counts for.
func (c *caller) step(ctx context.Context) (opKind, int, error) {
	o := c.stream[c.pos]
	if c.pos++; c.pos == len(c.stream) {
		c.pos = 0
	}
	kind, ops := o.kind(), 1
	switch kind {
	case opPut:
		k := o.key(0)
		c.req = kv.Request{Op: kv.ReqPut, Key: c.keys[k], Val: c.nextValue(0, k)}
		if _, err := c.cl.Do(ctx, &c.req); err != nil {
			return kind, ops, err
		}
		c.acked(1)
	case opGet:
		c.reads[0] = c.keys[o.key(0)]
		c.req = kv.Request{Op: kv.ReqGet, Keys: c.reads[:1]}
		resp, err := c.cl.Do(ctx, &c.req)
		if err != nil {
			return kind, ops, err
		}
		c.checkRead(c.reads[0], resp.Values[0], resp.Found[0])
	case opBatchPut:
		ops = batchKeys
		for j := range c.pairs {
			k := o.key(j)
			c.pairs[j] = kv.Pair{Key: c.keys[k], Val: c.nextValue(j, k)}
		}
		c.req = kv.Request{Op: kv.ReqBatchPut, Pairs: c.pairs[:]}
		if _, err := c.cl.Do(ctx, &c.req); err != nil {
			return kind, ops, err
		}
		c.acked(batchKeys)
	case opMGet:
		// A consistent multi-key snapshot: what Client.MGet sends from a
		// ring-less client, minus the result map.
		for j := range c.reads {
			c.reads[j] = c.keys[o.key(j)]
		}
		c.req = kv.Request{Op: kv.ReqTxn, Keys: c.reads[:]}
		resp, err := c.cl.Do(ctx, &c.req)
		if err != nil {
			return kind, ops, err
		}
		c.checkTxn(resp, mgetKeys)
	case opTxn:
		for j := 0; j < txnReads; j++ {
			c.reads[j] = c.keys[o.key(j)]
		}
		for j := range c.writes {
			k := o.key(txnReads + j)
			c.writes[j] = kv.TxnWrite{Key: c.keys[k], Val: c.nextValue(j, k)}
		}
		c.req = kv.Request{Op: kv.ReqTxn, Keys: c.reads[:txnReads], Writes: c.writes[:]}
		resp, err := c.cl.Do(ctx, &c.req)
		if err != nil {
			return kind, ops, err
		}
		if c.checkTxn(resp, txnReads) {
			c.acked(txnWrites)
		}
	}
	return kind, ops, nil
}

// checkTxn verifies a transaction's reply: unconditional transactions always
// commit, and their reads answer for every (preloaded) key.
func (c *caller) checkTxn(resp *kv.Response, reads int) bool {
	if !resp.OK {
		c.wrong("unconditional txn did not commit: %+v", resp)
		return false
	}
	if len(resp.Values) != reads || len(resp.Found) != reads {
		c.wrong("txn answered %d values for %d reads", len(resp.Values), reads)
		return true
	}
	for j := 0; j < reads; j++ {
		c.checkRead(c.reads[j], resp.Values[j], resp.Found[j])
	}
	return true
}

// warm runs n calls without recording them.
func (c *caller) warm(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		c.call(ctx)
	}
}

func (c *caller) call(ctx context.Context) (opKind, int, bool) {
	kind, ops, err := c.step(ctx)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("%v: %w", kind, err)
		}
	}
	return kind, ops, err == nil
}

// measure runs calls back to back until the last window ends, filing each
// completed call under the window it completed in.
func (c *caller) measure(ctx context.Context, start time.Time, winLen time.Duration) {
	for {
		t0 := time.Now()
		kind, ops, ok := c.call(ctx)
		t1 := time.Now()
		w := int(t1.Sub(start) / winLen)
		if w >= len(c.wins) {
			return
		}
		if !ok {
			continue
		}
		win := &c.wins[w]
		win.ops += uint64(ops)
		if kind.isWrite() {
			win.writes.record(uint64(t1.Sub(t0)))
		} else {
			win.reads.record(uint64(t1.Sub(t0)))
		}
		if c.span != nil {
			c.span.add(callSpans[kind], t0, t1)
		}
	}
}

// usage is a reading of the process-wide counters.
type usage struct {
	cpu         time.Duration // user+system
	allocs      uint64
	allocBytes  uint64
	gcCycles    uint64
	liveBytes   uint64 // heap marked live by the latest GC cycle
	maxRSSBytes uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

// readUsage reads the counters without stopping the world (runtime/metrics,
// not ReadMemStats), so sampling during a measurement costs the callers nothing.
func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:      s[0].Value.Uint64(),
		allocBytes:  s[1].Value.Uint64(),
		gcCycles:    s[2].Value.Uint64(),
		liveBytes:   s[3].Value.Uint64(),
		maxRSSBytes: uint64(ru.Maxrss) << 10, // Linux reports KiB
	}
}

// measurement is one closed-loop run of a workload: numWindows back-to-back
// windows, all callers running throughout.
type measurement struct {
	winLen      time.Duration
	wins        []window // callers merged
	first, last usage    // counters at the start and the end
	live        []uint64 // usage.liveBytes every heapSampleEvery
	gcPause     time.Duration
	goroutines  int
	// harnessBytes is the heap the callers' own tables hold during the
	// measurement (window histograms, op streams, last-write tables): known
	// exactly, and not the program's.
	harnessBytes uint64
}

func runMeasurement(ctx context.Context, callers []*caller, total time.Duration) *measurement {
	const n = numWindows
	m := &measurement{winLen: total / n, live: make([]uint64, 0, total/heapSampleEvery+1)}
	for _, c := range callers {
		c.wins = make([]window, n)
		m.harnessBytes += uint64(n)*uint64(unsafe.Sizeof(window{})) + uint64(len(c.stream))*4 + uint64(len(c.lastWrite))*8
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.measure(ctx, start, m.winLen)
		}(c)
	}
	m.first = readUsage()
	for end := start.Add(n * m.winLen); time.Now().Before(end); {
		time.Sleep(min(heapSampleEvery, time.Until(end)))
		m.last = readUsage()
		m.live = append(m.live, m.last.liveBytes)
	}
	m.goroutines = runtime.NumGoroutine()
	wg.Wait()
	runtime.ReadMemStats(&after)
	m.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	m.wins = make([]window, n)
	for _, c := range callers {
		for w := range c.wins {
			m.wins[w].ops += c.wins[w].ops
			m.wins[w].reads.merge(&c.wins[w].reads)
			m.wins[w].writes.merge(&c.wins[w].writes)
		}
		c.wins = nil
	}
	return m
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// heapSampleEvery is how often a measurement reads the live heap. The figure
// changes only when a GC cycle ends and depends on what that cycle caught
// alive; the median over many readings repeats within 2.5%, over six within 4%.
const heapSampleEvery = 200 * time.Millisecond

// numWindows is how many back-to-back windows a measurement is cut into. A
// latency figure is the median over the windows; rates and counts are totals
// over all of them.
const numWindows = 5

func (m *measurement) totalOps() uint64 {
	var n uint64
	for w := range m.wins {
		n += m.wins[w].ops
	}
	return n
}

// opsPerSec is the run-long rate: every op completed, stalls and all, over
// the measured time.
func (m *measurement) opsPerSec() float64 {
	return float64(m.totalOps()) / (time.Duration(len(m.wins)) * m.winLen).Seconds()
}

// p50us is the median latency of a class of calls: the median over the
// windows that saw such calls, or 0 if none did.
func (m *measurement) p50us(of func(w *window) hist) float64 {
	var v []float64
	for w := range m.wins {
		if h := of(&m.wins[w]); h.n > 0 {
			v = append(v, h.quantile(0.5)/1e3)
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func allCalls(w *window) hist {
	all := w.reads
	all.merge(&w.writes)
	return all
}

// endToEnd computes the gated metrics: rate and allocations as totals over
// the whole measurement, live heap as the median over its readings less what
// the harness itself holds.
func (m *measurement) endToEnd(setupSeconds float64) map[string]float64 {
	ops := float64(m.totalOps())
	live := make([]float64, len(m.live))
	for i, b := range m.live {
		live[i] = (float64(b) - float64(m.harnessBytes)) / (1 << 20)
	}
	return map[string]float64{
		"setup_s":            setupSeconds,
		"ops_per_s":          m.opsPerSec(),
		"allocs_per_op":      float64(m.last.allocs-m.first.allocs) / ops,
		"alloc_bytes_per_op": float64(m.last.allocBytes-m.first.allocBytes) / ops,
		"live_heap_mb":       median(live),
	}
}
