// Package obs is the unified observability layer: stage-latency histograms,
// cross-node operation tracing, and a flight recorder of recent protocol
// events, exported through one registry as Prometheus text or structured
// dumps.
//
// The paper's core contribution is measurement — Kaashoek & Tanenbaum
// evaluated the Amoeba group system by breaking protocol cost down per stage
// (request → sequencer → multicast → delivery) on real hardware. This
// package gives the reproduction the same per-stage decomposition as a live
// facility: every pipeline tier records its latencies into fixed-bucket
// histograms, sampled operations accumulate timestamped span events keyed by
// the command ids that already flow end-to-end, and a bounded ring of recent
// protocol events turns a failed churn test into a postmortem artifact.
//
// Everything is nil-safe: a nil *Hub (and every instrument vended by one) is
// the no-op sink, so instrumentation is compiled into the hot paths
// unconditionally and costs a nil check when observability is off.
package obs

// Hub is one node's observability root: a metric registry, an op tracer,
// and a flight recorder. A nil Hub is the no-op sink — every method is safe
// to call and vends nil instruments whose operations are no-ops.
type Hub struct {
	reg    *Registry
	tracer *Tracer
	flight *Recorder
	health *Auditor
}

// Options configures a Hub. Zero values are sensible.
type Options struct {
	// Node labels every exported metric and span with the owning node's
	// name.
	Node string
	// TraceMod samples operations whose id satisfies id % TraceMod == 0
	// (default 1024). Because the modulus is applied to the same id on
	// every node, all nodes sample the same operations without
	// coordination. 1 traces everything; use it only in tests.
	TraceMod uint64
}

const (
	// traceKeep bounds the number of retained traces, oldest evicted first.
	traceKeep = 256
	// flightSize bounds the flight recorder's events, across its stripes.
	flightSize = 256
)

// NewHub builds a live observability hub.
func NewHub(o Options) *Hub {
	if o.TraceMod == 0 {
		o.TraceMod = 1024
	}
	h := &Hub{
		reg:    newRegistry(o.Node),
		tracer: newTracer(o.Node, o.TraceMod, traceKeep),
		flight: newRecorder(flightSize),
	}
	h.health = newAuditor(h.reg, h.flight)
	return h
}

// Health returns the hub's state auditor (nil on a nil hub). Replicas of a
// scope report sequenced state digests and apply progress into it; it
// compares digests across replicas and maintains the health verdict.
func (h *Hub) Health() *Auditor {
	if h == nil {
		return nil
	}
	return h.health
}

// Registry returns the hub's metric registry (nil on a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Tracer returns the hub's op tracer (nil on a nil hub).
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

// Flight returns the hub's flight recorder (nil on a nil hub).
func (h *Hub) Flight() *Recorder {
	if h == nil {
		return nil
	}
	return h.flight
}

// Histogram returns the named histogram, registering it on first use.
// Returns nil (the no-op histogram) on a nil hub.
func (h *Hub) Histogram(name string) *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.histogram(name)
}

// Gauge returns the named gauge, registering it on first use. Returns nil
// (the no-op gauge) on a nil hub.
func (h *Hub) Gauge(name string) *Gauge {
	if h == nil {
		return nil
	}
	return h.reg.gauge(name)
}
