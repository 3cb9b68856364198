package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"adapipe/internal/obs"
)

// span is one recorded interval. Benchmark-side spans (category "client")
// are the roots; the daemon's request, phase, search and solve spans hang
// beneath them.
type span struct {
	name, cat  string
	pid, tid   int
	start, end time.Duration // offsets from the log origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// levels orders categories from root to leaf. A span's parent is the
// shortest span of a lower level that contains it, or of the same level on
// the same track (a track runs its spans one after another, so containment
// there is nesting; search.merge inside search.prefill is the case that
// occurs). Solve spans are leaves.
var levels = map[string]int{
	"client":       0,
	obs.CatRequest: 1,
	obs.CatPhase:   2,
	obs.CatSearch:  3,
	obs.CatSolve:   4,
}

// containSlack absorbs the nanosecond rounding of the daemon's microsecond
// timestamps.
const containSlack = 2 * time.Nanosecond

// selfTimes returns each span's parent index (-1 for a root) and self time:
// its duration minus the part of it covered by the union of its children.
func selfTimes(spans []span) (parent []int, self []time.Duration) {
	parent = make([]int, len(spans))
	var inner []int // spans that can be parents
	for i, s := range spans {
		if s.cat != obs.CatSolve {
			inner = append(inner, i)
		}
	}
	children := make([][]int, len(spans))
	for i, x := range spans {
		parent[i] = -1
		lx := levels[x.cat]
		for _, j := range inner {
			if j == i {
				continue
			}
			p := spans[j]
			lp := levels[p.cat]
			if lp > lx || (lp == lx && p.tid != x.tid) {
				continue
			}
			if p.start > x.start+containSlack || p.end+containSlack < x.end {
				continue
			}
			if lp == lx && p.dur() == x.dur() && j > i {
				continue // identical twins: the earlier one is the parent
			}
			if parent[i] < 0 || p.dur() < spans[parent[i]].dur() {
				parent[i] = j
			}
		}
		if parent[i] >= 0 {
			children[parent[i]] = append(children[parent[i]], i)
		}
	}
	self = make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return parent, self
}

// covered returns the length of the union of the children's intervals,
// clipped to s.
func covered(s span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if curB < 0 || v[0] > curB {
			if curB >= 0 {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB >= 0 {
		total += curB - curA
	}
	return total
}

// chromeEvent is one event of the Chrome trace-event format the daemon's
// /v1/trace/{id} serves and the benchmark writes.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// parseChrome decodes a daemon trace into spans relative to its own origin.
func parseChrome(b []byte) ([]span, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("decoding trace: %v", err)
	}
	out := make([]span, 0, len(doc.TraceEvents))
	for _, e := range doc.TraceEvents {
		start := time.Duration(math.Round(e.Ts * 1e3))
		out = append(out, span{name: e.Name, cat: e.Cat, tid: e.Tid, start: start, end: start + time.Duration(math.Round(e.Dur*1e3))})
	}
	return out, nil
}

// keepSolveReqs bounds how many requests per leg keep their knapsack solve
// spans in the written trace (a cold GPT-3 plan records up to 4,096); self
// times are computed from every request's full span set either way.
const keepSolveReqs = 4

// spanLog keeps a traced run's spans in memory and sums self time per span
// name as each request's spans arrive.
type spanLog struct {
	origin time.Time

	mu sync.Mutex
	// guarded by mu
	spans []span
	// self sums self time by span name over the daemon leg; inproc over
	// the in-process leg.
	// guarded by mu
	self, inproc map[string]time.Duration
	// queue holds the duration of every daemon "queue" phase.
	// guarded by mu
	queue []time.Duration
	// solveReqs counts requests whose solve spans were kept, per pid.
	// guarded by mu
	solveReqs [2]int
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), self: map[string]time.Duration{}, inproc: map[string]time.Duration{}}
}

// attach fetches the daemon trace of reply r and files its spans under the
// reply's client span.
func (l *spanLog) attach(ctx context.Context, c *client, conn int, r result) error {
	id := r.header.Get("X-Adapipe-Trace")
	if id == "" {
		return fmt.Errorf("%s reply carries no X-Adapipe-Trace header", r.op.kind)
	}
	b, err := c.get(ctx, "/v1/trace/"+id)
	if err != nil {
		return err
	}
	ds, err := parseChrome(b)
	if err != nil {
		return err
	}
	root := span{name: "client." + r.op.kind.String(), cat: "client", tid: conn, start: r.start.Sub(l.origin)}
	root.end = root.start + r.dur
	// The daemon's clock has its own origin: centre its request span inside
	// the client span, the network time split evenly on both sides.
	var reqSpan *span
	for i := range ds {
		if ds[i].cat == obs.CatRequest {
			reqSpan = &ds[i]
		}
	}
	if reqSpan == nil {
		return fmt.Errorf("trace %s has no request span", id)
	}
	shift := root.start + (r.dur-reqSpan.dur())/2 - reqSpan.start
	all := []span{root}
	for _, s := range ds {
		s.start += shift
		s.end += shift
		s.tid = conn*100 + s.tid
		all = append(all, s)
	}
	l.add(0, all, l.self)
	return nil
}

// addLocal files an in-process call: the benchmark's span around it plus
// the spans the planner recorded into tr (created at trOrigin).
func (l *spanLog) addLocal(name string, start time.Time, d time.Duration, tr *obs.Tracer, trOrigin time.Time) {
	root := span{name: name, cat: "client", pid: 1, start: start.Sub(l.origin)}
	root.end = root.start + d
	all := []span{root}
	base := trOrigin.Sub(l.origin)
	for _, s := range tr.Spans() {
		all = append(all, span{name: s.Name, cat: s.Cat, pid: 1, tid: s.Tid, start: base + s.Start, end: base + s.End})
	}
	l.add(1, all, l.inproc)
}

// add computes self times for one request's spans, sums them into sums and
// keeps the spans for the written trace.
func (l *spanLog) add(pid int, all []span, sums map[string]time.Duration) {
	_, self := selfTimes(all)
	l.mu.Lock()
	defer l.mu.Unlock()
	keepSolve := l.solveReqs[pid] < keepSolveReqs
	hasSolve := false
	for i, s := range all {
		s.pid = pid
		sums[s.name] += self[i]
		if pid == 0 && s.name == "queue" && s.cat == obs.CatPhase {
			l.queue = append(l.queue, s.dur())
		}
		if s.cat == obs.CatSolve {
			hasSolve = true
			if !keepSolve {
				continue
			}
		}
		l.spans = append(l.spans, s)
	}
	if hasSolve && keepSolve {
		l.solveReqs[pid]++
	}
}

// write stores the kept spans as a Chrome trace (pid 0: daemon leg, pid 1:
// in-process leg).
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := make([]chromeEvent, len(l.spans))
	for i, s := range l.spans {
		ev[i] = chromeEvent{Name: s.name, Cat: s.cat, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: s.pid, Tid: s.tid}
	}
	b, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{ev})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
