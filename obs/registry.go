package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Sample is one exported counter value. Sources report their counters as
// samples; same-named samples from different sources (several shard groups'
// cores on one node) are summed at render time.
type Sample struct {
	Name  string
	Value uint64
}

// Registry holds one node's metric instruments and counter sources, and
// renders them all as Prometheus text. Histograms and gauges live in the
// registry (created on first use); counters stay where they already are —
// the existing per-package Stats structs — and are pulled through
// registered source functions, which is what unifies the eight ad-hoc
// Stats structs behind one consistently-named export without moving their
// storage.
type Registry struct {
	node string

	mu      sync.Mutex
	hists   map[string]*Histogram
	gauges  map[string]*Gauge
	sources map[int]func() []Sample
	nextSrc int
	// retired holds the final samples of unregistered sources, so counters
	// stay monotonic on the endpoint after the component behind them closes.
	retired map[string]uint64
}

func newRegistry(node string) *Registry {
	return &Registry{
		node:    node,
		hists:   make(map[string]*Histogram),
		gauges:  make(map[string]*Gauge),
		sources: make(map[int]func() []Sample),
		retired: make(map[string]uint64),
	}
}

func (r *Registry) histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

func (r *Registry) gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// RegisterSource adds a counter source: a function returning the current
// value of named counters, called at every render. Safe on a nil registry.
// The returned handle unregisters the source; components must call it when
// they close, or the registry's reference keeps them (and everything their
// closure reaches — replicas, histories, state machines) alive forever.
// Unregistering folds the source's final samples into a retained total, so
// exported counters never go backwards when a component closes.
func (r *Registry) RegisterSource(src func() []Sample) (unregister func()) {
	if r == nil || src == nil {
		return func() {}
	}
	r.mu.Lock()
	id := r.nextSrc
	r.nextSrc++
	r.sources[id] = src
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if _, ok := r.sources[id]; ok {
			delete(r.sources, id)
			r.mu.Unlock()
			final := src() // outside the lock: sources may take component locks
			r.mu.Lock()
			for _, s := range final {
				r.retired[s.Name] += s.Value
			}
		}
		r.mu.Unlock()
	}
}

// Histograms snapshots every registered histogram, sorted by name.
func (r *Registry) Histograms() []HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hs := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	out := make([]HistSnapshot, 0, len(hs))
	for _, h := range hs {
		out = append(out, h.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters sums every source's samples by name, sorted by name.
func (r *Registry) Counters() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	srcs := make([]func() []Sample, 0, len(r.sources))
	for _, src := range r.sources {
		srcs = append(srcs, src)
	}
	sums := make(map[string]uint64, len(r.retired))
	for name, v := range r.retired {
		sums[name] = v
	}
	r.mu.Unlock()
	for _, src := range srcs {
		for _, s := range src() {
			sums[s.Name] += s.Value
		}
	}
	out := make([]Sample, 0, len(sums))
	for name, v := range sums {
		out = append(out, Sample{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges snapshots every registered gauge, sorted by name.
func (r *Registry) Gauges() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	gs := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gs = append(gs, g)
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(gs))
	for _, g := range gs {
		v := g.Value()
		if v < 0 {
			v = 0 // close-time decrements can transiently undershoot
		}
		out = append(out, Sample{Name: g.name, Value: uint64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// quantiles exported per histogram, matching the paper's percentile tables.
var exportQuantiles = []float64{0.50, 0.90, 0.99}

// WritePrometheus renders the registry in Prometheus text exposition
// format: counters and gauges as untyped samples, histograms as summaries
// with quantile labels plus _count/_sum/_max series. Every series carries a
// node label. Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	label := func(extra string) string {
		parts := make([]string, 0, 2)
		if r.node != "" {
			parts = append(parts, fmt.Sprintf("node=%q", r.node))
		}
		if extra != "" {
			parts = append(parts, extra)
		}
		if len(parts) == 0 {
			return ""
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	for _, s := range r.Counters() {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", s.Name, s.Name, label(""), s.Value); err != nil {
			return err
		}
	}
	for _, s := range r.Gauges() {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %d\n", s.Name, s.Name, label(""), s.Value); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", h.Name); err != nil {
			return err
		}
		for _, q := range exportQuantiles {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", h.Name, label(fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q))), h.Quantile(q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n%s_sum%s %d\n%s_max%s %d\n",
			h.Name, label(""), h.Count, h.Name, label(""), h.Sum, h.Name, label(""), h.Max); err != nil {
			return err
		}
	}
	return nil
}
