package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"trimgrad/internal/netsim"
	"trimgrad/internal/obs"
	"trimgrad/internal/transport"
)

// span is one timed call from the benchmark's driver into a layer's public
// function. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Round  int    `json:"round"` // the timed round in progress when the span opened
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// hookTotal is the time spent in one transport hook while a span was
// open. Hooks fire once per delivered packet or completed message, far
// too often for one span each, so the tracer folds them into totals
// attributed to the enclosing span. Concurrent marks hooks that ran on
// several shard goroutines at once: their total is summed CPU time and
// may exceed the parent's wall time, so it is never subtracted from it.
type hookTotal struct {
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Ns         int64  `json:"ns"`
	Calls      int64  `json:"calls"`
	Concurrent bool   `json:"concurrent,omitempty"`
}

// Hook names: the collective layer's handlers, reached through the
// transport.Stack fields it installs.
const (
	hookDeliver  = "collective.deliver"
	hookComplete = "collective.complete"
)

// hookAcc accumulates one hook's time. Under the sharded engine the hooks
// fire on shard goroutines, so the counters are atomic.
type hookAcc struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (h *hookAcc) observe(d time.Duration) {
	h.ns.Add(int64(d))
	h.calls.Add(1)
}

// tracer records spans in memory around the driver's calls into each
// layer. A nil *tracer is the untraced run: every method is a no-op, so
// the timed loop and the traced loop are the same code.
type tracer struct {
	t0         time.Time
	spans      []span
	open       []int // ids of the open spans, innermost last
	round      int
	hooks      []hookTotal
	deliver    hookAcc
	complete   hookAcc
	concurrent bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// registry returns a fresh obs registry for the layers a traced job
// builds, and nil when untraced, so the layers keep their telemetry-off
// fast path.
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return obs.New()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span. Hook time
// accumulated while it was open is attributed to it.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
	t.flushHooks(id)
}

func (t *tracer) flushHooks(parent int) {
	for _, h := range []struct {
		name string
		acc  *hookAcc
	}{{hookDeliver, &t.deliver}, {hookComplete, &t.complete}} {
		calls := h.acc.calls.Swap(0)
		ns := h.acc.ns.Swap(0)
		if calls > 0 {
			t.hooks = append(t.hooks, hookTotal{Parent: parent, Name: h.name, Ns: ns, Calls: calls, Concurrent: t.concurrent})
		}
	}
}

// setRound tags the spans opened from now on with round r.
func (t *tracer) setRound(r int) {
	if t != nil {
		t.round = r
	}
}

// wrap times the collective layer's hooks on s by wrapping the public
// Receiver and OnMessageComplete fields the collective installed. It must
// run after collective.New has bound the stack.
func (t *tracer) wrap(s *transport.Stack) {
	if t == nil {
		return
	}
	if inner := s.Receiver; inner != nil {
		s.Receiver = transport.ReceiverFunc(func(src netsim.NodeID, payload []byte) {
			t0 := time.Now()
			inner.HandlePayload(src, payload)
			t.deliver.observe(time.Since(t0))
		})
	}
	if inner := s.OnMessageComplete; inner != nil {
		s.OnMessageComplete = func(src netsim.NodeID, msg uint32, at netsim.Time) {
			t0 := time.Now()
			inner(src, msg, at)
			t.complete.observe(time.Since(t0))
		}
	}
}

// totals sums span durations by name.
func totals(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// hookTotals sums hook time by hook name.
func hookTotals(hooks []hookTotal) map[string]int64 {
	out := make(map[string]int64)
	for _, h := range hooks {
		out[h.Name] += h.Ns
	}
	return out
}

// selfTimes folds the span tree into self time by span name: a span's
// duration minus the durations of its direct children and minus the hook
// time that ran inside it on its own goroutine. Concurrent hook time is
// not subtracted (it overlaps across shards), so spans that contain it
// report their full duration.
func selfTimes(spans []span, hooks []hookTotal) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, h := range hooks {
		if h.Parent >= 0 && !h.Concurrent {
			child[h.Parent] += h.Ns
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

// write stores the spans and hook totals as JSON lines, one record per
// line, each tagged with its kind.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			span
		}{"span", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, h := range t.hooks {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			hookTotal
		}{"hook", h}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
