// Package obs is trimgrad's unified observability layer: a stdlib-only,
// deterministic metrics and tracing registry that every instrumented
// package (netsim, transport, core, collective, ddp) reports into.
//
// Three properties drive the design:
//
//   - Determinism. Telemetry is part of the experiment output: two
//     same-seed runs must emit bit-identical exports. All timestamps come
//     from an injectable Clock — by default a logical counter, in
//     simulations the netsim virtual clock — never the wall clock
//     (enforced by trimlint's wallclock checker). Snapshots are sorted,
//     histograms use fixed pinned buckets, and quantiles are computed
//     from bucket counts without sorting observations.
//
//   - Injectability. Instrumentation is opt-in through functional options
//     (netsim.WithRegistry, transport.WithRegistry, ...). A nil *Registry
//     (obs.Nop) is a valid registry whose instruments are all no-ops, so
//     hot paths pay one nil check when telemetry is off.
//
//   - Mergeability. Snapshot values compose: Merge is associative and
//     order-independent (counters sum, gauges max, histograms add
//     bucket-wise, spans union), so per-worker or per-cell registries can
//     be combined into one fleet view in any order.
//
// Instruments are get-or-create by name and safe for concurrent use
// (counters, gauges, and histograms are atomic; the span log is
// mutex-guarded). A component that already keeps a stats struct does not
// count its events twice: it registers each field once with CounterFunc,
// and the registry reads the struct when a snapshot is taken. Those
// reads are not synchronized with the component, so snapshot only while
// it is idle (between simulator runs). The naming schema shared by every
// instrumented package is documented in DESIGN.md §9.
package obs

import (
	"sync"
	"sync/atomic"
)

// Clock supplies int64 timestamps for spans and StartSpan/Now. In
// simulations this is the netsim virtual clock (nanoseconds of simulated
// time); the default is a logical monotone counter, which is deterministic
// under deterministic execution. It must never read the wall clock.
type Clock func() int64

// Registry owns a namespace of instruments plus a span log. The zero
// value is not useful; construct with New. A nil *Registry (Nop) is valid:
// every method no-ops and every instrument getter returns a nil instrument
// whose methods also no-op.
type Registry struct {
	mu       sync.Mutex
	clock    Clock
	logical  atomic.Int64
	counters map[string]*Counter
	views    map[string][]func() int64
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    []SpanPoint
}

// Nop is the disabled registry: instruments obtained from it are no-ops.
// Passing Nop (or just nil) through WithRegistry options turns
// instrumentation off at the cost of one nil check per event.
var Nop *Registry

// Option configures a Registry at construction.
type Option func(*Registry)

// WithClock sets the timestamp source (see SetClock).
func WithClock(c Clock) Option { return func(r *Registry) { r.clock = c } }

// New returns an empty registry. Without WithClock, timestamps come from
// a logical counter that increments on every Now call.
func New(opts ...Option) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		views:    make(map[string][]func() int64),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetClock rebinds the timestamp source, e.g. to a simulator's virtual
// clock once the simulation exists. Nil restores the logical counter.
func (r *Registry) SetClock(c Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// Now returns the current timestamp from the registry's clock. On the nil
// registry it returns 0.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.clock
	r.mu.Unlock()
	if c != nil {
		return c()
	}
	return r.logical.Add(1)
}

// Counter returns the named monotone counter, creating it on first use.
// A name already registered with CounterFunc panics. Nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		if r.views[name] != nil {
			panic("obs: counter " + name + " is already a CounterFunc view")
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a function-backed counter: f is called inside
// Snapshot (on the snapshotting goroutine, under the registry lock, so it
// must not call back into the registry) and its value is exported under
// name exactly like a Counter's. This is how a component whose stats
// struct is authoritative (netsim.PortStats, transport.Stats) exposes it
// without counting each event twice. Registering the same name again
// adds another function and the snapshot reports their sum, as Merge
// sums same-name counters; a name used by Counter panics. The registry
// keeps f, and whatever it reads, reachable. Nil registry is a no-op.
func (r *Registry) CounterFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters[name] != nil {
		panic("obs: counter " + name + " redeclared as a CounterFunc view")
	}
	r.views[name] = append(r.views[name], f)
}

// Gauge returns the named gauge, creating it on first use. Nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given bucket upper bounds on first use. Bounds must be strictly
// increasing; a later call with different bounds for the same name panics
// (bucket boundaries are part of the export schema and must be pinned).
// Nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(name, bounds)
		r.hists[name] = h
	} else if !boundsEqual(h.bounds, bounds) {
		panic("obs: histogram " + name + " redeclared with different bucket bounds")
	}
	return h
}

// Counter is a monotone event counter. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value (queue depth, window size).
// Fractional quantities are stored scaled (e.g. cwnd ×1000); the scale is
// part of the metric name. Methods are safe for concurrent use and no-ops
// on a nil receiver.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
