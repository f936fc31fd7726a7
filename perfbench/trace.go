package main

// The traced run's span model. Spans are recorded by this package around
// its own calls into the program (client infer, gateway handle, server
// handle, one hecnn layer, one ckks op); nothing inside the program is
// instrumented. Spans stay in memory and are written out when the run
// ends; per-layer self time is derived from them.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"fxhenn/internal/hecnn"
)

// span is one timed interval. Spans of one request share Trace; Parent
// is the ID of the enclosing span (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
	// Key links spans across a hop before their trace is known: the TCP
	// port of the client's connection for client and gateway spans, the
	// layer name for ckks op spans. Not written out.
	Key string `json:"-"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog collects spans from concurrent goroutines.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span, numbering it.
func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
}

func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// snapshot returns a copy of the recorded spans.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once; child time outside the parent's interval is ignored).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered measures the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	st := selfTimes(spans)
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += st[s.ID]
	}
	return self
}

// linkRequests gives every request-path span its request's trace ID and
// parent, and returns spans with the derived gateway.wait spans added.
// Client spans already carry the trace (a hash of the request's first
// bytes) and, in Key, the client connection's local port. A gateway span's
// Key is the accepted connection's remote port, so it belongs to the
// client span with that port whose interval encloses it. A server span
// carries the trace itself (the shard sees the same request bytes) and
// hangs under the gateway span of that trace. gateway.wait covers the
// part of a gateway span before the client's first request byte, when
// the gateway has nothing to do; it keeps client encryption out of the
// gateway's self time.
func linkRequests(spans []span) []span {
	type clientRef struct {
		id         int
		trace      string
		start, end int64
	}
	byPort := map[string][]clientRef{}
	clientByTrace := map[string]int{}
	firstByte := map[string]int64{}
	for _, s := range spans {
		switch s.Name {
		case "client.infer":
			byPort[s.Key] = append(byPort[s.Key], clientRef{s.ID, s.Trace, s.Start, s.End})
			clientByTrace[s.Trace] = s.ID
		case "client.encrypt":
			firstByte[s.Trace] = s.End
		}
	}
	gwByTrace := map[string]int{}
	next := len(spans) + 1
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client.encrypt", "client.decrypt":
			s.Parent = clientByTrace[s.Trace]
		case "gateway.handle":
			for _, c := range byPort[s.Key] {
				if c.start <= s.Start && s.Start <= c.end {
					s.Trace, s.Parent = c.trace, c.id
					gwByTrace[c.trace] = s.ID
					break
				}
			}
		}
	}
	for i, n := 0, len(spans); i < n; i++ {
		s := spans[i]
		switch s.Name {
		case "server.handle":
			if s.Trace != "" {
				spans[i].Parent = gwByTrace[s.Trace]
			}
		case "gateway.handle":
			if fb, ok := firstByte[s.Trace]; ok && fb > s.Start {
				spans = append(spans, span{Trace: s.Trace, ID: next, Parent: s.ID, Name: "gateway.wait",
					Start: s.Start, End: min(fb, s.End)})
				next++
			}
		}
	}
	return spans
}

// linkOps hangs each ckks op span of a pass under the layer span of the
// same pass whose name its Key carries.
func linkOps(spans []span) {
	layer := map[string]int{}
	for _, s := range spans {
		if l, ok := strings.CutPrefix(s.Name, "hecnn."); ok {
			layer[s.Trace+"/"+l] = s.ID
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Key != "" && strings.HasPrefix(s.Name, "ckks.") {
			s.Parent = layer[s.Trace+"/"+s.Key]
		}
	}
}

// opStat accumulates one ckks operation class.
type opStat struct {
	ops int           // operations (a RotateMany call counts its rotations)
	dur time.Duration // wall time inside the backend
}

// timedBackend wraps a hecnn.Backend, timing every call and recording it
// as a span under the current layer.
type timedBackend struct {
	inner hecnn.Backend
	log   *spanLog
	trace string
	layer string
	ops   map[string]*opStat
}

func newTimedBackend(inner hecnn.Backend, log *spanLog, trace string) *timedBackend {
	return &timedBackend{inner: inner, log: log, trace: trace, ops: map[string]*opStat{}}
}

func (t *timedBackend) done(op string, start time.Time, n int) {
	end := time.Now()
	st := t.ops[op]
	if st == nil {
		st = &opStat{}
		t.ops[op] = st
	}
	st.ops += n
	st.dur += end.Sub(start)
	t.log.add(span{Trace: t.trace, Name: "ckks." + op, Start: t.log.at(start), End: t.log.at(end), Key: t.layer})
}

func (t *timedBackend) SetLayer(name string) {
	t.layer = name
	t.inner.SetLayer(name)
}

func (t *timedBackend) PCmult(x *hecnn.CT, w hecnn.Plain) *hecnn.CT {
	s := time.Now()
	r := t.inner.PCmult(x, w)
	t.done("pcmult", s, 1)
	return r
}

func (t *timedBackend) PCadd(x *hecnn.CT, w hecnn.Plain) *hecnn.CT {
	s := time.Now()
	r := t.inner.PCadd(x, w)
	t.done("pcadd", s, 1)
	return r
}

func (t *timedBackend) CCadd(x, y *hecnn.CT) *hecnn.CT {
	s := time.Now()
	r := t.inner.CCadd(x, y)
	t.done("ccadd", s, 1)
	return r
}

func (t *timedBackend) Square(x *hecnn.CT) *hecnn.CT {
	s := time.Now()
	r := t.inner.Square(x)
	t.done("square", s, 1)
	return r
}

func (t *timedBackend) Rescale(x *hecnn.CT) *hecnn.CT {
	s := time.Now()
	r := t.inner.Rescale(x)
	t.done("rescale", s, 1)
	return r
}

func (t *timedBackend) Rotate(x *hecnn.CT, k int) *hecnn.CT {
	s := time.Now()
	r := t.inner.Rotate(x, k)
	n := 0
	if k != 0 {
		n = 1
	}
	t.done("rotate", s, n)
	return r
}

func (t *timedBackend) RotateMany(x *hecnn.CT, ks []int) []*hecnn.CT {
	s := time.Now()
	r := t.inner.RotateMany(x, ks)
	n := 0
	for _, k := range ks {
		if k != 0 {
			n++
		}
	}
	t.done("rotate", s, n)
	return r
}
