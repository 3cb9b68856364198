package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"adapipe/internal/request"
)

// opKind is the endpoint an operation calls.
type opKind int

const (
	opPlan opKind = iota
	opSweep
	opReplan
	opSimulate
)

func (k opKind) String() string {
	return [...]string{"plan", "sweep", "replan", "simulate"}[k]
}

func (k opKind) path() string { return "/v1/" + k.String() }

// op is one generated request. Everything the response check needs is
// computed with the body, before any timing starts.
type op struct {
	kind opKind
	body []byte
	// hash is the request hash the response envelope must echo: the plan
	// request's hash, the sweep's own hash, or the replan's inner request
	// hash.
	hash string
	// model names the architecture, for the plan layer-count check.
	model string
	// points holds a sweep's expected per-point hashes in expansion order;
	// an operation counts len(points) toward throughput, or 1 when nil.
	points []string
	// run is the training run a replan belongs to.
	run int
}

// weight is the number of operations the request counts for.
func (o op) weight() int {
	if o.points != nil {
		return len(o.points)
	}
	return 1
}

// The paper-scale shapes every workload draws from: GPT-3 175B (L=194 in
// the planner's layer sequence) on cluster A and Llama 2 70B on cluster B,
// both with eight pipeline stages.
var (
	gpt3Shape  = request.PlanRequest{Model: "gpt3", Cluster: "a", TP: 8, PP: 8, DP: 1, SeqLen: 16384, GlobalBatch: 32}
	llamaShape = request.PlanRequest{Model: "llama2", Cluster: "b", TP: 4, PP: 8, DP: 4, SeqLen: 4096, GlobalBatch: 256}
)

// affine is a seeded bijection on [0, m): i -> (a*i + b) mod m with a
// coprime to m. Streams index it with a running counter, so every value a
// run draws is distinct until the counter wraps at m.
type affine struct{ a, b, m int }

func newAffine(rng *rand.Rand, m int) affine {
	for {
		a := 1 + rng.Intn(m-1)
		if gcd(a, m) == 1 {
			return affine{a: a, b: rng.Intn(m), m: m}
		}
	}
}

func (f affine) at(i int) int { return (f.a*(i%f.m) + f.b) % f.m }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// newRNG derives a stream's generator from the run seed and a salt naming
// the stream, so streams of one run are independent of each other.
func newRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// planOp builds the /v1/plan operation for req.
func planOp(kind opKind, req request.PlanRequest) (op, error) {
	h, err := req.Hash()
	if err != nil {
		return op{}, err
	}
	return op{kind: kind, body: mustJSON(req), hash: h, model: req.Model}, nil
}

// ---- plan-cold ----

// reserveSpan is the number of distinct memory_reserve values plan-cold
// draws from: reserves are (reserveLo + k) / 1e6 for k in [0, reserveSpan),
// i.e. [0.10, 0.20), a band in which both shapes stay feasible.
const (
	reserveLo   = 100000
	reserveSpan = 100000
)

// coldGen generates plan-cold requests: request i alternates GPT-3 and
// Llama 2 (a fixed composition, so seeds differ only in values, not in the
// mix) and carries a memory_reserve no other request of the run uses. The
// reserve is part of the cost-family fingerprint, so every request misses
// both the response cache and the cost store.
type coldGen struct{ res affine }

func newColdGen(seed int64) *coldGen {
	return &coldGen{res: newAffine(newRNG(seed, 1), reserveSpan)}
}

// request returns the i-th request of the run's sequence. Priming takes the
// first indices and the timed phase the ones after.
func (g *coldGen) request(i int) request.PlanRequest {
	r := gpt3Shape
	if i%2 == 1 {
		r = llamaShape
	}
	r.MemoryReserve = float64(reserveLo+g.res.at(i)) / 1e6
	return r
}

// ---- sweep-warm ----

// sweep-warm request shapes: priming sends primeSweeps sweeps of
// primePoints points (exercising the ranking check every run); the timed
// phase sends one-point sweeps, so a 30 s run yields ~500 per-point latency
// samples and the p95 tail rests on ~25 of them. gbSpan is the number of
// distinct global_batch values the points draw from (64 .. 64+gbSpan).
const (
	primeSweeps = 2
	primePoints = 4
	sweepPoints = 1
	gbLo        = 64
	gbSpan      = 8192
)

// sweepGen generates sweep-warm requests: sweeps over the global_batch axis
// of one fixed GPT-3 family, with every global_batch value drawn once per
// run. Index 0 is the family member whose plan writes the cost-store
// snapshot; priming and timed sweeps take the following values.
type sweepGen struct{ gb affine }

func newSweepGen(seed int64) *sweepGen {
	return &sweepGen{gb: newAffine(newRNG(seed, 2), gbSpan)}
}

// batch returns the i-th global_batch value of the run.
func (g *sweepGen) batch(i int) int { return gbLo + g.gb.at(i) }

// snapshotRequest is the plan request whose search fills the snapshot.
func (g *sweepGen) snapshotRequest() request.PlanRequest {
	r := gpt3Shape
	r.GlobalBatch = g.batch(0)
	return r
}

// sweep returns the sweep over points first .. first+n-1 of the
// global_batch sequence.
func (g *sweepGen) sweep(first, n int) request.SweepRequest {
	gbs := make([]int, n)
	for j := range gbs {
		gbs[j] = g.batch(first + j)
	}
	req := request.SweepRequest{Base: gpt3Shape, Axes: request.SweepAxes{GlobalBatch: gbs}}
	req.Base.GlobalBatch = gbs[0]
	return req
}

// primeSweep returns the s-th priming sweep (s < primeSweeps): points
// 1 + s*primePoints ... of the sequence.
func (g *sweepGen) primeSweep(s int) request.SweepRequest {
	return g.sweep(1+s*primePoints, primePoints)
}

// timedSweep returns the i-th timed sweep: the points after the priming
// ones.
func (g *sweepGen) timedSweep(i int) request.SweepRequest {
	return g.sweep(1+primeSweeps*primePoints+i*sweepPoints, sweepPoints)
}

// sweepOp builds the /v1/sweep operation for req.
func sweepOp(req request.SweepRequest) (op, error) {
	h, err := req.Hash()
	if err != nil {
		return op{}, err
	}
	pts, err := req.Expand()
	if err != nil {
		return op{}, err
	}
	o := op{kind: opSweep, body: mustJSON(req), hash: h, model: req.Base.Model}
	for _, p := range pts {
		ph, err := p.Hash()
		if err != nil {
			return op{}, err
		}
		o.points = append(o.points, ph)
	}
	return o, nil
}

// ---- serve-mixed ----

// serve-mixed composition: every block of mixBlock requests on a connection
// holds exactly mixReplans replans and mixSims simulates, the rest plans
// from the hot set, in a seeded order. Fixing the counts per block (rather
// than drawing each request's kind) keeps the mix, and so the throughput,
// from varying with the seed.
const (
	mixBlock   = 40
	mixReplans = 3
	mixSims    = 1
	hotPerSh   = 8 // hot-set plans per shape
	mixConns   = 2
	runsPer    = 2 // training runs per connection, one per shape
)

// mixedSet is the fixed request population of a serve-mixed run: the hot
// set primed into the response cache, the training runs primed into the
// warm-planner store, and the simulate requests.
type mixedSet struct {
	hot  []op
	runs []request.PlanRequest
	// runHash is the hash of each training run's plan request.
	runHash []string
	sims    []op
}

// newMixedSet draws the population from the seed. The hot set and the
// simulates take distinct global_batch values from narrow bands (GPT-3
// n = 32..63, Llama 2 n = 48..79 micro-batches), and the training runs have
// fixed shapes just above them: the simulator's cost grows with the
// micro-batch count and every replan simulates twice, so wide or seeded
// bands would make the replan latency depend on the seed.
func newMixedSet(seed int64) (*mixedSet, error) {
	rng := newRNG(seed, 3)
	g := newAffine(rng, 32)
	l := newAffine(rng, 32)
	gi, li := 0, 0
	nextGPT := func() request.PlanRequest {
		r := gpt3Shape
		r.GlobalBatch = 32 + g.at(gi)
		gi++
		return r
	}
	nextLlama := func() request.PlanRequest {
		r := llamaShape
		r.GlobalBatch = 4 * (48 + l.at(li)) // DP = 4
		li++
		return r
	}
	ms := &mixedSet{}
	for i := 0; i < hotPerSh; i++ {
		for _, r := range []request.PlanRequest{nextGPT(), nextLlama()} {
			o, err := planOp(opPlan, r)
			if err != nil {
				return nil, err
			}
			ms.hot = append(ms.hot, o)
		}
	}
	for c := 0; c < mixConns; c++ {
		gpt, llama := gpt3Shape, llamaShape
		gpt.GlobalBatch = 64 + c
		llama.GlobalBatch = 4 * (80 + c)
		for _, r := range []request.PlanRequest{gpt, llama} {
			h, err := r.Hash()
			if err != nil {
				return nil, err
			}
			ms.runs = append(ms.runs, r)
			ms.runHash = append(ms.runHash, h)
		}
	}
	// Simulates use the even-partition, non-adaptive DAPPLE baselines: the
	// simulator and schedule layers do the work, not the knapsack.
	for _, m := range []string{"DAPPLE-Full", "DAPPLE-Non"} {
		for _, r := range []request.PlanRequest{nextGPT(), nextLlama()} {
			r.Method = m
			o, err := planOp(opSimulate, r)
			if err != nil {
				return nil, err
			}
			ms.sims = append(ms.sims, o)
		}
	}
	return ms, nil
}

// primeReplan is the replan that seeds a training run's warm planner: the
// first replan for a hash runs cold, every later one warm.
func (ms *mixedSet) primeReplan(run int) op {
	scale := make([]float64, ms.runs[run].PP)
	for i := range scale {
		scale[i] = 1
	}
	return ms.replanOp(run, scale)
}

func (ms *mixedSet) replanOp(run int, scale []float64) op {
	req := request.ReplanRequest{Request: ms.runs[run], Scale: scale}
	return op{kind: opReplan, body: mustJSON(req), hash: ms.runHash[run], model: ms.runs[run].Model, run: run}
}

// mixedStream is one connection's closed-loop request sequence.
type mixedStream struct {
	set   *mixedSet
	conn  int
	rng   *rand.Rand
	block []opKind
	pos   int
	nrep  int
}

func (ms *mixedSet) stream(seed int64, conn int) *mixedStream {
	return &mixedStream{set: ms, conn: conn, rng: newRNG(seed, int64(100+conn))}
}

// next returns the connection's next request.
func (s *mixedStream) next() (op, error) {
	if s.pos == len(s.block) {
		s.block = s.block[:0]
		for i := 0; i < mixBlock; i++ {
			k := opPlan
			switch {
			case i < mixReplans:
				k = opReplan
			case i < mixReplans+mixSims:
				k = opSimulate
			}
			s.block = append(s.block, k)
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	k := s.block[s.pos]
	s.pos++
	switch k {
	case opReplan:
		// The connection's training runs take turns, and no other
		// connection replans them, so each run's replan sequence — and with
		// it the incumbent plan each replan starts from — is the same on
		// every run of one seed.
		run := s.conn*runsPer + s.nrep%runsPer
		s.nrep++
		return s.set.replanOp(run, s.straggle(s.set.runs[run].PP)), nil
	case opSimulate:
		return s.set.sims[s.rng.Intn(len(s.set.sims))], nil
	default:
		return s.set.hot[s.rng.Intn(len(s.set.hot))], nil
	}
}

// straggle draws a straggler scale vector: one slowed stage, sometimes two,
// each by 5-60%.
func (s *mixedStream) straggle(pp int) []float64 {
	scale := make([]float64, pp)
	for i := range scale {
		scale[i] = 1
	}
	slow := 1
	if s.rng.Intn(10) < 3 {
		slow = 2
	}
	for i := 0; i < slow; i++ {
		scale[s.rng.Intn(pp)] = float64(1050+s.rng.Intn(551)) / 1000
	}
	return scale
}

// ---- streams ----

// stream yields one connection's operations in order.
type stream interface{ next() (op, error) }

// funcStream adapts an index-driven generator.
type funcStream struct {
	i int
	f func(i int) (op, error)
}

func (s *funcStream) next() (op, error) {
	o, err := s.f(s.i)
	s.i++
	return o, err
}

// describe summarizes an op for error messages.
func (o op) describe() string {
	return fmt.Sprintf("%s %s", o.kind, o.body)
}
