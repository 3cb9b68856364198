package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"adapipe"
	"adapipe/internal/baseline"
	"adapipe/internal/core"
	"adapipe/internal/coststore"
	"adapipe/internal/obs"
	"adapipe/internal/request"
	"adapipe/internal/schedule"
)

// Replay lengths of the in-process leg: the first operations of each
// connection's timed stream.
var inprocOps = map[string]int{"plan-cold": 6, "sweep-warm": 2, "serve-mixed": 2 * mixBlock}

// microBudget is how long each in-process micro-measurement repeats its
// call; the metric is the mean (or median) over the repetitions.
const microBudget = 150 * time.Millisecond

// searchSums adds up SearchStats deltas over the in-process leg.
type searchSums struct {
	lookups, partitionCells, warmCells int
	knapsackCells                      int64
	parWall, parBusy                   time.Duration
	workers                            int
}

func (s *searchSums) add(after, before core.SearchStats) {
	s.lookups += after.CostEvaluations - before.CostEvaluations
	s.partitionCells += after.PartitionCells - before.PartitionCells
	s.warmCells += after.WarmStartCells - before.WarmStartCells
	s.knapsackCells += after.KnapsackCells - before.KnapsackCells
	s.parWall += after.ParallelWall - before.ParallelWall
	s.parBusy += after.ParallelBusy - before.ParallelBusy
	if after.Workers > s.workers {
		s.workers = after.Workers
	}
}

// inprocLeg is what replaying the workload's requests through the public
// package calls measured.
type inprocLeg struct {
	ops    int
	sums   searchSums
	bodies []op
	// planned pairs each plan the leg produced with its request.
	planned []plannedPair
	// simulated are the plans the workload's operations simulate: replans
	// run the simulator on the repriced incumbent and the new plan, and
	// /v1/simulate on its plan.
	simulated []plannedPair
}

type plannedPair struct {
	req  request.PlanRequest
	plan *core.Plan
}

// traced runs f under a fresh tracer and files its spans under a
// benchmark-side span named name.
func traced(ctx context.Context, log *spanLog, name string, f func(ctx context.Context) error) error {
	start := time.Now()
	tr := obs.NewTracer("inproc", time.Now, 1<<20)
	err := f(obs.WithTracer(ctx, tr))
	log.addLocal(name, start, time.Since(start), tr, start)
	return err
}

// inproc replays the first operations of the workload's timed streams
// through request -> core (with a cost store attached, as in the daemon) ->
// simulator, recording spans and SearchStats.
func (b *bench) inproc(ctx context.Context, log *spanLog) (*inprocLeg, error) {
	store := coststore.New(b.storeSize)
	if b.snapshot != "" {
		if err := store.LoadSnapshot(b.snapshot); err != nil {
			return nil, err
		}
	}
	newPlanner := func(req request.PlanRequest) (*core.Planner, error) {
		pl, err := req.NewPlanner(b.workers)
		if err != nil {
			return nil, err
		}
		return pl, pl.SetCostSource(store)
	}
	leg := &inprocLeg{}
	plan := func(ctx context.Context, req request.PlanRequest) error {
		pl, err := newPlanner(req)
		if err != nil {
			return err
		}
		p, err := pl.PlanContext(ctx)
		if err != nil {
			return err
		}
		leg.sums.add(pl.StatsSnapshot(), core.SearchStats{})
		leg.planned = append(leg.planned, plannedPair{req, p})
		return nil
	}

	// Warm planners for serve-mixed's training runs, seeded the way the
	// daemon's priming replan seeds them (untraced, uncounted).
	type warmRun struct {
		pl        *core.Planner
		incumbent *core.Plan
	}
	var warm []warmRun
	if b.w == serveMixed {
		for run, req := range b.mixed.runs {
			pl, err := newPlanner(req)
			if err != nil {
				return nil, err
			}
			p, err := pl.PlanContext(ctx)
			if err != nil {
				return nil, err
			}
			rr, err := request.ParseReplanRequest(b.mixed.primeReplan(run).body)
			if err != nil {
				return nil, err
			}
			rep, err := pl.ReplanWithScaleContext(ctx, p, rr.Scale)
			if err != nil {
				return nil, err
			}
			if rep.Adopted {
				p = rep.New
			}
			warm = append(warm, warmRun{pl, p})
		}
	}

	streams, err := b.w.streams(b)
	if err != nil {
		return nil, err
	}
	for _, s := range streams {
		for i := 0; i < inprocOps[b.w.name]; i++ {
			o, err := s.next()
			if err != nil {
				return nil, err
			}
			leg.bodies = append(leg.bodies, o)
			leg.ops += o.weight()
			switch o.kind {
			case opPlan:
				if b.w == serveMixed {
					continue // the daemon answers the hot set from its response cache
				}
				req, err := request.ParsePlanRequest(o.body)
				if err != nil {
					return nil, err
				}
				err = traced(ctx, log, "inproc.plan", func(ctx context.Context) error { return plan(ctx, req) })
				if err != nil {
					return nil, err
				}
			case opSweep:
				sr, err := request.ParseSweepRequest(o.body)
				if err != nil {
					return nil, err
				}
				pts, err := sr.Expand()
				if err != nil {
					return nil, err
				}
				for _, pt := range pts {
					np, err := pt.Normalize()
					if err != nil {
						return nil, err
					}
					err = traced(ctx, log, "inproc.plan", func(ctx context.Context) error { return plan(ctx, np) })
					if err != nil {
						return nil, err
					}
				}
			case opReplan:
				rr, err := request.ParseReplanRequest(o.body)
				if err != nil {
					return nil, err
				}
				wr := &warm[o.run]
				before := wr.pl.StatsSnapshot()
				var rep *core.Replan
				err = traced(ctx, log, "inproc.replan", func(ctx context.Context) error {
					var err error
					rep, err = wr.pl.ReplanWithScaleContext(ctx, wr.incumbent, rr.Scale)
					return err
				})
				if err != nil {
					return nil, err
				}
				leg.sums.add(wr.pl.StatsSnapshot(), before)
				leg.simulated = append(leg.simulated, plannedPair{rr.Request, rep.Old}, plannedPair{rr.Request, rep.New})
				if rep.Adopted {
					wr.incumbent = rep.New
				}
			case opSimulate:
				req, err := request.ParsePlanRequest(o.body)
				if err != nil {
					return nil, err
				}
				var out baseline.Outcome
				err = traced(ctx, log, "inproc.simulate", func(ctx context.Context) error {
					m, err := req.MethodConfig()
					if err != nil {
						return err
					}
					cfg, err := req.ModelConfig()
					if err != nil {
						return err
					}
					cl, err := req.ClusterConfig()
					if err != nil {
						return err
					}
					opts, err := req.Options(b.workers)
					if err != nil {
						return err
					}
					out = baseline.EvaluateContext(ctx, m, cfg, cl, req.Strategy(), req.TrainingConfig(), opts)
					return out.Err
				})
				if err != nil {
					return nil, err
				}
				if out.Plan == nil {
					return nil, fmt.Errorf("simulate %s: infeasible", o.body)
				}
				leg.sums.add(out.Plan.Search, core.SearchStats{})
				leg.simulated = append(leg.simulated, plannedPair{req, out.Plan})
			}
		}
	}
	return leg, nil
}

// repeat calls f(0), f(1), ... until microBudget has elapsed (at least
// once) and returns each call's duration.
func repeat(f func(k int) error) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for len(ds) == 0 || time.Since(start) < microBudget {
		t := time.Now()
		if err := f(len(ds)); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t))
	}
	return ds, nil
}

func meanOf(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

// parseHash is what the daemon does with a body before any lookup.
func parseHash(o op) error {
	var err error
	switch o.kind {
	case opPlan, opSimulate:
		var r request.PlanRequest
		if r, err = request.ParsePlanRequest(o.body); err == nil {
			_, err = r.Hash()
		}
	case opSweep:
		var r request.SweepRequest
		if r, err = request.ParseSweepRequest(o.body); err == nil {
			_, err = r.Hash()
		}
	case opReplan:
		var r request.ReplanRequest
		if r, err = request.ParseReplanRequest(o.body); err == nil {
			_, err = r.Request.Hash()
		}
	}
	return err
}

// micro times single calls into the request, coststore, sim and schedule
// layers on the leg's own bodies and plans. A layer the workload's
// operations never call reports 0.
func (b *bench) micro(leg *inprocLeg) (map[string]metric, error) {
	out := map[string]metric{}
	ds, err := repeat(func(k int) error { return parseHash(leg.bodies[k%len(leg.bodies)]) })
	if err != nil {
		return nil, err
	}
	out["request.parse_hash_us"] = metric{us(meanOf(ds)), "us"}

	var sweeps []request.SweepRequest
	for _, o := range leg.bodies {
		if o.kind == opSweep {
			sr, err := request.ParseSweepRequest(o.body)
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, sr)
		}
	}
	out["request.expand_us"] = metric{0, "us"}
	if len(sweeps) > 0 {
		ds, err = repeat(func(k int) error {
			_, err := sweeps[k%len(sweeps)].Expand()
			return err
		})
		if err != nil {
			return nil, err
		}
		out["request.expand_us"] = metric{us(meanOf(ds)), "us"}
	}

	encodes := leg.planned
	if len(encodes) == 0 {
		// serve-mixed plans nothing fresh; its replies encode the simulated
		// plans.
		encodes = leg.simulated
	}
	out["request.encode_us"] = metric{0, "us"}
	if len(encodes) > 0 {
		ds, err = repeat(func(k int) error {
			e := encodes[k%len(encodes)]
			pr, err := request.NewPlanResponse(e.req, e.plan)
			if err != nil {
				return err
			}
			_, err = pr.Encode()
			return err
		})
		if err != nil {
			return nil, err
		}
		out["request.encode_us"] = metric{us(meanOf(ds)), "us"}
	}

	out["sim.run_ms"] = metric{0, "ms"}
	out["schedule.validate_ms"] = metric{0, "ms"}
	if sims := leg.simulated; len(sims) > 0 {
		ds, err = repeat(func(k int) error {
			_, err := adapipe.Simulate(sims[k%len(sims)].plan, adapipe.Sched1F1B, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		out["sim.run_ms"] = metric{percentile(sortedMs(ds), 50), "ms"}
		ds, err = repeat(func(k int) error {
			p := sims[k%len(sims)].plan
			s, err := schedule.OneFOneB(p.Strategy.PP, p.MicroBatches)
			if err != nil {
				return err
			}
			return s.Validate()
		})
		if err != nil {
			return nil, err
		}
		out["schedule.validate_ms"] = metric{percentile(sortedMs(ds), 50), "ms"}
	}

	out["coststore.snapshot_load_ms"] = metric{0, "ms"}
	out["coststore.snapshot_mib"] = metric{0, "MiB"}
	if b.snapshot != "" {
		fi, err := os.Stat(b.snapshot)
		if err != nil {
			return nil, err
		}
		var loads []time.Duration
		for k := 0; k < 5; k++ {
			st := coststore.New(b.storeSize)
			t := time.Now()
			if err := st.LoadSnapshot(b.snapshot); err != nil {
				return nil, err
			}
			loads = append(loads, time.Since(t))
		}
		out["coststore.snapshot_load_ms"] = metric{percentile(sortedMs(loads), 50), "ms"}
		out["coststore.snapshot_mib"] = metric{float64(fi.Size()) / (1 << 20), "MiB"}
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overheadWindow is the length of one untraced or traced window of the
// traced run.
const overheadWindow = 2500 * time.Millisecond

// traceRun is the traced run: one daemon serves alternating untraced and
// traced windows of the same streams (the median throughput difference of
// a window pair is the tracing overhead), then come the in-process leg and
// the micro-measurements. It reports the per-layer metrics.
func (b *bench) traceRun(ctx context.Context, stdout io.Writer, tracePath string) (*outcome, error) {
	d, _, err := b.setupOnce(ctx, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %v", err)
	}
	b.measured = d.args
	log := newSpanLog()
	plain, traced := &phase{}, &phase{}
	var overheads []float64
	tp, err := b.timedOn(d, func(streams []stream) (*phase, error) {
		pairs := max(1, int(time.Duration(b.seconds)*time.Second/(2*overheadWindow)))
		all := &phase{}
		for k := 0; k < pairs; k++ {
			var tput [2]float64
			// Pairs alternate their order (untraced first, then traced
			// first) so a steady drift of the machine's speed cancels.
			for j := 0; j < 2; j++ {
				on := (j+k)%2 == 1
				var tr *spanLog
				if on {
					tr = log
				}
				ph, err := runPhase(ctx, d.base, streams, overheadWindow, b.chk, tr)
				if err != nil {
					return nil, err
				}
				if on {
					traced.add(ph)
					traced.elapsed += ph.elapsed
					tput[1] = ph.throughput()
				} else {
					plain.add(ph)
					plain.elapsed += ph.elapsed
					tput[0] = ph.throughput()
				}
				all.add(ph)
				all.elapsed += ph.elapsed
			}
			overheads = append(overheads, ratio(tput[0]-tput[1], tput[0]))
		}
		return all, nil
	})
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	b.report(stdout, "timed", tp)
	fmt.Fprintf(stdout, "loadbench: tracing overhead per window pair %.4f\n", overheads)

	leg, err := b.inproc(ctx, log)
	if err != nil {
		return nil, fmt.Errorf("in-process leg: %v", err)
	}
	mic, err := b.micro(leg)
	if err != nil {
		return nil, fmt.Errorf("micro-measurements: %v", err)
	}
	if err := log.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "loadbench: trace written to %s\n", tracePath)

	dm := tp.delta
	ops := float64(tp.ops)
	// Spans exist for the traced windows only.
	selfMs := func(name string) float64 { return ratio(ms(log.self[name]), float64(traced.ops)) }
	lops := float64(leg.ops)
	// The search sub-phases come from the in-process leg: the daemon records
	// no search spans for the points of a /v1/sweep, so only that leg sees
	// them on every workload.
	searchMs := func(name string) float64 { return ratio(ms(log.inproc[name]), lops) }
	m := map[string]metric{
		"serve.queue_ms":                  {percentile(sortedMs(log.queue), 50), "ms"},
		"serve.hit_ms":                    {percentile(sortedMs(plain.hits), 50), "ms"},
		"serve.response_hit_ratio":        {ratio(dm.serve("cache_hits_total"), dm.serve("cache_hits_total")+dm.serve("cache_misses_total")+dm.serve("coalesced_total")), "ratio"},
		"serve.codec_ms":                  {selfMs("decode") + selfMs("encode"), "ms"},
		"serve.replan_warm_ratio":         {ratio(float64(tp.warm), float64(tp.replans)), "ratio"},
		"serve.simulate_ms":               {percentile(sortedMs(plain.lat[opSimulate]), 50), "ms"},
		"coststore.hit_ratio":             {storeHitRatio(dm), "ratio"},
		"coststore.evictions_per_op":      {ratio(dm.serve("cost_store_evictions_total"), ops), "count/op"},
		"coststore.entries":               {tp.after.serve("cost_store_entries"), "count"},
		"core.prefill_ms":                 {searchMs("search.prefill"), "ms"},
		"core.partition_ms":               {searchMs("search.partition"), "ms"},
		"core.incremental_ms":             {searchMs("search.incremental"), "ms"},
		"core.stages_ms":                  {searchMs("search.stages"), "ms"},
		"core.cost_lookups_per_op":        {ratio(float64(leg.sums.lookups), lops), "count/op"},
		"core.parallel_efficiency":        {ratio(float64(leg.sums.parBusy), float64(leg.sums.parWall)*float64(leg.sums.workers)), "ratio"},
		"recompute.knapsack_runs_per_op":  {ratio(dm.serve("knapsack_runs_total"), ops), "count/op"},
		"recompute.knapsack_ms":           {ratio(ms(log.inproc["knapsack"]), lops), "ms"},
		"recompute.knapsack_cells_per_op": {ratio(float64(leg.sums.knapsackCells), lops), "count/op"},
		"partition.cells_per_op":          {ratio(float64(leg.sums.partitionCells), lops), "count/op"},
		"partition.warm_cell_ratio":       {ratio(float64(leg.sums.warmCells), float64(leg.sums.warmCells+leg.sums.partitionCells)), "ratio"},
		"trace.overhead_ratio":            {median(overheads), "ratio"},
	}
	for k, v := range mic {
		m[k] = v
	}
	fmt.Fprintf(stdout, "loadbench: untraced %.3f ops/s, traced %.3f ops/s; in-process leg %d ops\n", plain.throughput(), traced.throughput(), leg.ops)
	return &outcome{
		Correct:   tp.failed == 0,
		Attempted: tp.attempted,
		Failed:    tp.failed,
		Metrics:   m,
	}, nil
}

// storeHitRatio is the cost store's share of lookups answered without a
// fresh solve, from /metrics deltas: (hits + shared) / (hits + shared +
// misses), the definition of coststore.Stats.HitRate.
func storeHitRatio(d metrics) float64 {
	hit := d.serve("cost_store_hits_total") + d.serve("cost_store_shared_total")
	return ratio(hit, hit+d.serve("cost_store_misses_total"))
}
