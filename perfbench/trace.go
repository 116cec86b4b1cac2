package main

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// an ID. A replayed span re-ran the request's work through a layer's
// public function after the fact, on benchmark-owned instances, so its
// interval lies outside its parent's.
type span struct {
	id         uint64
	name       string
	start, end time.Duration // since the tracer's epoch
	replayed   bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName groups spans by name, each group keyed by request ID.
func (t *tracer) byName() map[string]map[uint64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]map[uint64][]span{}
	for _, s := range t.spans {
		m := out[s.name]
		if m == nil {
			m = map[uint64][]span{}
			out[s.name] = m
		}
		m[s.id] = append(m[s.id], s)
	}
	return out
}

// selfTime is parent's duration minus what its children cover. Nested
// children count by the union of their intervals clipped to the parent;
// replayed children ran elsewhere, so they count by their full duration.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var nested []iv
	var replayed time.Duration
	for _, c := range children {
		if c.replayed {
			replayed += c.dur()
			continue
		}
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			nested = append(nested, iv{lo, hi})
		}
	}
	sort.Slice(nested, func(i, j int) bool { return nested[i].lo < nested[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range nested {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(nested) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered - replayed
}

// Request-ID header the traced client sets and the handler wrapper reads.
// On /v1/telemetry it names the stream; events within it are numbered in
// order (eventID).
const traceHeader = "X-Perfbench-Req"

func eventID(stream, k int) uint64 { return uint64(stream)<<32 | uint64(k) }

// wrapHandler records a service.handler span per traced request. On the
// NDJSON telemetry endpoint the handler serves a whole stream, so the
// span is per event instead: from the body read that delivers an event
// line to the flush that follows its result.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		if r.URL.Path == "/v1/telemetry" {
			ev := &eventSpans{t: t, stream: int(id)}
			// The body is swapped on a shallow copy: the server keys its
			// post-handler body handling on the original request's body
			// type, and a foreign type there makes it drain the stream.
			r2 := r.WithContext(r.Context())
			r2.Body = &eventBody{ReadCloser: r.Body, ev: ev}
			h.ServeHTTP(&eventWriter{ResponseWriter: w, ev: ev}, r2)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{id: id, name: "service.handler", start: start, end: t.now()})
	})
}

// eventSpans numbers one telemetry stream's events as the handler
// reads and answers them.
type eventSpans struct {
	t      *tracer
	stream int
	k      int
	open   bool
	start  time.Duration
}

type eventBody struct {
	io.ReadCloser
	ev *eventSpans
}

func (b *eventBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && !b.ev.open {
		b.ev.open, b.ev.start = true, b.ev.t.now()
	}
	return n, err
}

type eventWriter struct {
	http.ResponseWriter
	ev *eventSpans
}

func (w *eventWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	if ev := w.ev; ev.open {
		ev.t.add(span{id: eventID(ev.stream, ev.k), name: "service.handler", start: ev.start, end: ev.t.now()})
		ev.open = false
		ev.k++
	}
}

func (w *eventWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
