package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"adapipe/internal/core"
	"adapipe/internal/request"
)

// client is one closed-loop connection: a single keep-alive TCP connection
// that sends its next request only after the previous reply is read.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is one completed request as the client saw it.
type result struct {
	op     op
	status int
	body   []byte
	header http.Header
	start  time.Time
	dur    time.Duration
	err    error
}

// do sends o and reads the whole reply; dur covers both.
func (c *client) do(ctx context.Context, o op) result {
	r := result{op: o}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	r.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.dur = time.Since(r.start)
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(r.start)
	r.status, r.header = resp.StatusCode, resp.Header
	return r
}

// get fetches a GET endpoint's body.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}

// checker validates replies. refs and layers are filled before any timing
// and only read afterwards; seen is per connection.
type checker struct {
	// layers maps a model name to its planner layer count, the coverage a
	// valid plan must have.
	layers map[string]int
	// refs maps a plan-request hash to the reply an in-process search
	// produced for it: the full /v1/plan body, byte for byte.
	refs map[string][]byte
	// refChecks counts replies compared against refs.
	refChecks int
	// seen maps a request hash to a reply body already validated for it. A
	// byte-identical reply to the same request passes the same checks, so
	// repeats are compared instead of re-parsed; this keeps the client's CPU
	// off the daemon's cores under cache-hit load.
	seen map[string][]byte
}

func (ch *checker) forConn() *checker {
	return &checker{layers: ch.layers, refs: ch.refs, seen: map[string][]byte{}}
}

// check applies every output check to one reply.
func (ch *checker) check(r result) error {
	if r.err != nil {
		return fmt.Errorf("transport: %v", r.err)
	}
	if r.status < 200 || r.status > 299 {
		return fmt.Errorf("status %d: %s", r.status, truncate(r.body))
	}
	cacheable := r.op.kind == opPlan || r.op.kind == opSimulate
	if prev, ok := ch.seen[r.op.hash]; cacheable && ok && bytes.Equal(prev, r.body) {
		return nil
	}
	var err error
	switch r.op.kind {
	case opPlan:
		err = ch.checkPlan(r)
	case opSweep:
		err = ch.checkSweep(r)
	case opReplan:
		err = ch.checkReplan(r)
	case opSimulate:
		err = ch.checkSimulate(r)
	}
	if err == nil && cacheable {
		ch.seen[r.op.hash] = r.body
	}
	return err
}

func (ch *checker) checkPlan(r result) error {
	pr, err := request.ParsePlanResponse(r.body)
	if err != nil {
		return err
	}
	if pr.RequestHash != r.op.hash {
		return fmt.Errorf("request_hash %s, want %s", pr.RequestHash, r.op.hash)
	}
	if err := ch.validPlan(pr.Plan, r.op.model); err != nil {
		return err
	}
	if ref, ok := ch.refs[r.op.hash]; ok {
		ch.refChecks++
		if !bytes.Equal(ref, r.body) {
			return fmt.Errorf("reply differs from the in-process reference plan response")
		}
	}
	return nil
}

func (ch *checker) checkSweep(r result) error {
	sr, err := request.ParseSweepResponse(r.body)
	if err != nil {
		return err
	}
	if sr.RequestHash != r.op.hash {
		return fmt.Errorf("request_hash %s, want %s", sr.RequestHash, r.op.hash)
	}
	if len(sr.Points) != len(r.op.points) {
		return fmt.Errorf("%d points, want %d", len(sr.Points), len(r.op.points))
	}
	for i, p := range sr.Points {
		if p.Error != nil {
			return fmt.Errorf("point %d failed: %s", i, p.Error.Message)
		}
		if p.RequestHash != r.op.points[i] {
			return fmt.Errorf("point %d request_hash %s, want %s", i, p.RequestHash, r.op.points[i])
		}
		if err := ch.validPlan(p.Plan, r.op.model); err != nil {
			return fmt.Errorf("point %d: %v", i, err)
		}
		if ref, ok := ch.refs[p.RequestHash]; ok {
			ch.refChecks++
			pr, err := request.ParsePlanResponse(ref)
			if err != nil {
				return err
			}
			if !bytes.Equal(pr.Plan, p.Plan) {
				return fmt.Errorf("point %d plan differs from the in-process reference plan", i)
			}
		}
	}
	return checkRanking(sr)
}

// checkRanking requires the ranking to list every feasible point once, in
// ascending iter_sec.
func checkRanking(sr request.SweepResponse) error {
	if len(sr.Ranking) != len(sr.Points) {
		return fmt.Errorf("ranking lists %d of %d points", len(sr.Ranking), len(sr.Points))
	}
	seen := make([]bool, len(sr.Points))
	for k, i := range sr.Ranking {
		if i < 0 || i >= len(sr.Points) || seen[i] {
			return fmt.Errorf("ranking entry %d is %d", k, i)
		}
		seen[i] = true
		if k > 0 && sr.Points[i].IterSec < sr.Points[sr.Ranking[k-1]].IterSec {
			return fmt.Errorf("ranking not ascending in iter_sec at entry %d", k)
		}
	}
	return nil
}

func (ch *checker) checkReplan(r result) error {
	rr, err := request.ParseReplanResponse(r.body)
	if err != nil {
		return err
	}
	if rr.RequestHash != r.op.hash {
		return fmt.Errorf("request_hash %s, want %s", rr.RequestHash, r.op.hash)
	}
	switch r.header.Get("X-Adapipe-Replan") {
	case "warm":
		if !rr.Incremental {
			return fmt.Errorf("warm replan reports incremental: false")
		}
	case "cold":
	default:
		return fmt.Errorf("replan disposition %q", r.header.Get("X-Adapipe-Replan"))
	}
	return ch.validPlan(rr.Plan, r.op.model)
}

func (ch *checker) checkSimulate(r result) error {
	var sr request.SimulateResponse
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return fmt.Errorf("decoding simulate response: %v", err)
	}
	if sr.Version != request.Version {
		return fmt.Errorf("response version %d, want %d", sr.Version, request.Version)
	}
	if sr.RequestHash != r.op.hash {
		return fmt.Errorf("request_hash %s, want %s", sr.RequestHash, r.op.hash)
	}
	if !(sr.IterSec > 0) || math.IsInf(sr.IterSec, 0) {
		return fmt.Errorf("simulated iter_sec %g", sr.IterSec)
	}
	return ch.validPlan(sr.Plan, r.op.model)
}

// validPlan decodes a plan and checks its structural invariants against the
// model's layer count.
func (ch *checker) validPlan(raw json.RawMessage, model string) error {
	var p core.Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return err
	}
	return p.Validate(ch.layers[model])
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// layerCounts returns the planner layer count of each model the shapes use.
func layerCounts() (map[string]int, error) {
	out := map[string]int{}
	for _, r := range []request.PlanRequest{gpt3Shape, llamaShape} {
		pl, err := r.NewPlanner(1)
		if err != nil {
			return nil, err
		}
		out[r.Model] = pl.LayerCount()
	}
	return out, nil
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	// ops is the operation weight completed (sweep points count singly);
	// attempted and failed count operations the same way.
	ops, attempted, failed int
	elapsed                time.Duration
	// lat holds each successful request's latency by endpoint; perPoint a
	// sweep's latency divided by its point count.
	lat      map[opKind][]time.Duration
	perPoint []time.Duration
	// hits are /v1/plan latencies answered from the response cache.
	hits []time.Duration
	// replans and warm count replies by X-Adapipe-Replan disposition.
	replans, warm int
	refChecks     int
	errs          []string
}

func (p *phase) throughput() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// add merges q's counts and samples into p; elapsed is left to the caller.
func (p *phase) add(q *phase) {
	if p.lat == nil {
		p.lat = map[opKind][]time.Duration{}
	}
	p.ops += q.ops
	p.attempted += q.attempted
	p.failed += q.failed
	for k, v := range q.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	p.perPoint = append(p.perPoint, q.perPoint...)
	p.hits = append(p.hits, q.hits...)
	p.replans += q.replans
	p.warm += q.warm
	p.refChecks += q.refChecks
	p.errs = append(p.errs, q.errs...)
}

// connPhase is one connection's share of a phase, merged after the join.
type connPhase struct {
	phase
	end time.Time
}

// runPhase drives one closed loop per stream for d, checking every reply.
// With tr set, each request's daemon trace is fetched after the reply (the
// fetch is outside the request's latency but inside the loop, which is what
// makes the traced run slower) and attached to the request's client span.
func runPhase(ctx context.Context, base string, streams []stream, d time.Duration, chk *checker, tr *spanLog) (*phase, error) {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]connPhase, len(streams))
	errc := make(chan error, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errc <- runConn(ctx, base, i, streams[i], deadline, chk.forConn(), tr, &parts[i])
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			return nil, err
		}
	}
	out := &phase{}
	end := start
	for i := range parts {
		out.add(&parts[i].phase)
		if parts[i].end.After(end) {
			end = parts[i].end
		}
	}
	out.elapsed = end.Sub(start)
	return out, nil
}

// runConn is one connection's closed loop. It returns an error only for a
// failure of the benchmark itself; failed requests are counted in p.
func runConn(ctx context.Context, base string, conn int, s stream, deadline time.Time, chk *checker, tr *spanLog, p *connPhase) error {
	c := newClient(base)
	defer c.close()
	p.lat = map[opKind][]time.Duration{}
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		o, err := s.next()
		if err != nil {
			return fmt.Errorf("generating request: %v", err)
		}
		r := c.do(ctx, o)
		w := o.weight()
		p.attempted += w
		if err := chk.check(r); err != nil {
			p.failed += w
			if len(p.errs) < 5 {
				p.errs = append(p.errs, fmt.Sprintf("%s: %v", o.describe(), err))
			}
			continue
		}
		p.ops += w
		p.lat[o.kind] = append(p.lat[o.kind], r.dur)
		switch o.kind {
		case opSweep:
			p.perPoint = append(p.perPoint, r.dur/time.Duration(w))
		case opPlan:
			if r.header.Get("X-Adapipe-Cache") == "hit" {
				p.hits = append(p.hits, r.dur)
			}
		case opReplan:
			p.replans++
			if r.header.Get("X-Adapipe-Replan") == "warm" {
				p.warm++
			}
		}
		if tr != nil {
			if err := tr.attach(ctx, c, conn, r); err != nil {
				return err
			}
		}
	}
	p.refChecks = chk.refChecks
	p.end = time.Now()
	return nil
}
