package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"b2b/internal/transport"
	"b2b/internal/wire"
)

// A span is one timed call at a layer boundary, recorded from outside the
// program: the benchmark wraps the calls it makes into a layer's public
// functions (and the callbacks a layer makes into the benchmark's object).
// Spans carry no run ID: the public API exposes none, so a span attaches
// to the root span (one Enter→outcome) of the same object that encloses it
// in time.
type span struct {
	name       string // "<layer>.<call>", or "commit" for roots
	key        string // object name ("" when the payload names none)
	start, end int64  // ns since the tracer's epoch
	bytes      int    // payload bytes (transport spans)
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return "root"
}

// rank orders layers from the outside in: a span's children are the spans
// of the same object with a higher rank that overlap it.
func rankOf(layer string) int {
	switch layer {
	case "root":
		return 0
	case "b2b":
		return 1
	case "transport":
		return 2
	default: // app
		return 3
	}
}

// tracer keeps spans in memory while on; a nil tracer records nothing.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

var noop = func() {}

// timed times one call across a layer boundary — a public call the
// benchmark makes, or a callback into its object: `defer tr.timed(n, k)()`.
func (t *tracer) timed(name, key string) func() {
	if !t.active() {
		return noop
	}
	start := t.now()
	return func() { t.add(span{name: name, key: key, start: start, end: t.now()}) }
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// envelopeKey names the object an encoded envelope belongs to.
func envelopeKey(payload []byte) string {
	env, err := wire.UnmarshalEnvelope(payload)
	if err != nil {
		return ""
	}
	return env.Object
}

// tracedConn is the core.Conn handed to b2b.NewParticipant in a traced run.
// It times Send and the inbound handler installed through SetHandler, and
// forwards the optional methods the runtime looks for on its connection
// (per-peer backlog for the pending quota, streaming for state transfer).
type tracedConn struct {
	rel *transport.Reliable
	tr  *tracer
}

func (c *tracedConn) ID() string { return c.rel.ID() }

func (c *tracedConn) Send(ctx context.Context, to string, payload []byte) error {
	if !c.tr.active() {
		return c.rel.Send(ctx, to, payload)
	}
	start := c.tr.now()
	err := c.rel.Send(ctx, to, payload)
	c.tr.add(span{name: "transport.send", key: envelopeKey(payload), start: start, end: c.tr.now(), bytes: len(payload)})
	return err
}

func (c *tracedConn) SendStream(ctx context.Context, to string, payload []byte, limit int) error {
	if !c.tr.active() {
		return c.rel.SendStream(ctx, to, payload, limit)
	}
	start := c.tr.now()
	err := c.rel.SendStream(ctx, to, payload, limit)
	c.tr.add(span{name: "transport.send", key: envelopeKey(payload), start: start, end: c.tr.now(), bytes: len(payload)})
	return err
}

func (c *tracedConn) SetHandler(h transport.Handler) {
	c.rel.SetHandler(func(from string, payload []byte) {
		if !c.tr.active() {
			h(from, payload)
			return
		}
		start := c.tr.now()
		h(from, payload)
		c.tr.add(span{name: "transport.handler", key: envelopeKey(payload), start: start, end: c.tr.now(), bytes: len(payload)})
	})
}

func (c *tracedConn) PendingTo(to string) int { return c.rel.PendingTo(to) }

func (c *tracedConn) Pending() int { return c.rel.Pending() }

func (c *tracedConn) Close() error { return c.rel.Close() }

// interval is a half-open time range in ns.
type interval struct{ a, b int64 }

// coveredLen is the length of the union of ivs clipped to [lo, hi).
func coveredLen(ivs []interval, lo, hi int64) int64 {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		a, b := max(iv.a, lo), min(iv.b, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	first := true
	for _, iv := range clipped {
		switch {
		case first:
			curA, curB, first = iv.a, iv.b, false
		case iv.a > curB:
			total += curB - curA
			curA, curB = iv.a, iv.b
		case iv.b > curB:
			curB = iv.b
		}
	}
	if !first {
		total += curB - curA
	}
	return total
}

// selfTimes returns, per layer, the summed self time of its spans in ns: a
// span's duration minus the part of it that overlapping spans of the same
// object at deeper layers cover. Spans at different parties run in
// parallel, so the layers' self times can add up to more than wall time.
func selfTimes(spans []span) map[string]int64 {
	// byKey[key][rank] lists that object's spans of one layer by start.
	byKey := map[string]*[4][]span{}
	for _, s := range spans {
		k := byKey[s.key]
		if k == nil {
			k = new([4][]span)
			byKey[s.key] = k
		}
		r := rankOf(s.layer())
		k[r] = append(k[r], s)
	}
	out := map[string]int64{}
	for _, k := range byKey {
		var maxDur [4]int64
		for r := range k {
			sort.Slice(k[r], func(i, j int) bool { return k[r][i].start < k[r][j].start })
			for _, s := range k[r] {
				maxDur[r] = max(maxDur[r], s.end-s.start)
			}
		}
		for r := range k {
			for _, s := range k[r] {
				var kids []interval
				for cr := r + 1; cr < len(k); cr++ {
					cs := k[cr]
					// Only spans starting within maxDur before s can overlap it.
					i := sort.Search(len(cs), func(i int) bool { return cs[i].start >= s.start-maxDur[cr] })
					for ; i < len(cs) && cs[i].start < s.end; i++ {
						if cs[i].end > s.start {
							kids = append(kids, interval{cs[i].start, cs[i].end})
						}
					}
				}
				out[s.layer()] += (s.end - s.start) - coveredLen(kids, s.start, s.end)
			}
		}
	}
	return out
}

// writeSpans writes spans as CSV (name,key,start_ns,end_ns,bytes,parent)
// where parent is the row index (0-based, -1 for none) of the enclosing
// span of the same object at the nearest shallower layer.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	// open[key][rank] is the latest-starting span of that rank seen so far.
	open := map[string]*[4]int{}
	fmt.Fprintln(w, "name,key,start_ns,end_ns,bytes,parent")
	for i, s := range sorted {
		o := open[s.key]
		if o == nil {
			o = &[4]int{-1, -1, -1, -1}
			open[s.key] = o
		}
		r := rankOf(s.layer())
		parent := -1
		for pr := r - 1; pr >= 0; pr-- {
			if j := o[pr]; j >= 0 && sorted[j].end >= s.start {
				parent = j
				break
			}
		}
		o[r] = i
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", s.name, s.key, s.start, s.end, s.bytes, parent)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
