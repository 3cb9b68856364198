package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"adapipe/internal/request"
)

// workload is one traffic mix. Every hook is a pure function of the run's
// seed and of the daemon's replies.
type workload struct {
	name string
	why  string
	// timed is the request class the latency metrics are computed over.
	timed opKind
	// tailQ is the percentile latency_tail_ms reports: the one the tail
	// rule gives at the sample count of a 30 s run on a 2-CPU machine, so
	// that every run, and a parent and a change, report the same one.
	tailQ float64
	// prepare runs once before any set-up: reference plans for the byte
	// identity checks and any file the daemon loads at start.
	prepare func(ctx context.Context, b *bench) error
	// args returns the workload's daemon arguments for one spawn whose
	// files live in dir. It runs before the set-up clock starts.
	args func(b *bench, dir string) ([]string, error)
	// prime is the untimed warm-up after /healthz, inside setup_s.
	prime func(ctx context.Context, b *bench, c *client) error
	// streams returns fresh timed request streams, one per connection.
	streams func(b *bench) ([]stream, error)
	// integrity checks the /metrics deltas of a timed phase: a violation
	// means the generator no longer exercises what the workload claims.
	integrity func(delta metrics) error
}

var workloads = []*workload{planCold, sweepWarm, serveMixed}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want plan-cold, sweep-warm or serve-mixed)", name)
}

// newBench returns a run's state with every request generator drawn from
// the seed.
func newBench(w *workload, seed int64) (*bench, error) {
	ms, err := newMixedSet(seed)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: seed, cold: newColdGen(seed), sweep: newSweepGen(seed), mixed: ms}, nil
}

// primeOp sends one priming request and checks its reply.
func primeOp(ctx context.Context, b *bench, c *client, o op) error {
	r := c.do(ctx, o)
	if err := b.chk.forConn().check(r); err != nil {
		return fmt.Errorf("priming %s: %v", o.describe(), err)
	}
	return nil
}

// refSample picks n distinct indices in [lo, lo+span) from the seed.
func refSample(seed int64, salt int64, lo, span, n int) []int {
	rng := newRNG(seed, salt)
	perm := rng.Perm(span)
	out := make([]int, n)
	for i := range out {
		out[i] = lo + perm[i]
	}
	return out
}

// addRef computes the in-process reference reply for req: the planner the
// request describes, a fresh search, the plan response encoding.
func addRef(b *bench, req request.PlanRequest) error {
	pl, err := req.NewPlanner(b.workers)
	if err != nil {
		return err
	}
	plan, err := pl.Plan()
	if err != nil {
		return err
	}
	pr, err := request.NewPlanResponse(req, plan)
	if err != nil {
		return err
	}
	body, err := pr.Encode()
	if err != nil {
		return err
	}
	h, err := req.Hash()
	if err != nil {
		return err
	}
	b.chk.refs[h] = body
	return nil
}

// ---- plan-cold ----

// coldPrime is the number of cold plans sent while priming.
const coldPrime = 8

var planCold = &workload{
	name:  "plan-cold",
	why:   "every request a new cost family, so the knapsack prefill, worker pool and cold partition DP do the work",
	timed: opPlan,
	tailQ: 95,
	prepare: func(ctx context.Context, b *bench) error {
		for _, i := range refSample(b.seed, 11, coldPrime, 40, 3) {
			if err := addRef(b, b.cold.request(i)); err != nil {
				return err
			}
		}
		return nil
	},
	args: func(*bench, string) ([]string, error) { return nil, nil },
	prime: func(ctx context.Context, b *bench, c *client) error {
		for i := 0; i < coldPrime; i++ {
			o, err := planOp(opPlan, b.cold.request(i))
			if err != nil {
				return err
			}
			if err := primeOp(ctx, b, c, o); err != nil {
				return err
			}
		}
		return nil
	},
	streams: func(b *bench) ([]stream, error) {
		return []stream{&funcStream{f: func(i int) (op, error) {
			return planOp(opPlan, b.cold.request(coldPrime+i))
		}}}, nil
	},
	integrity: func(d metrics) error {
		if v := d.serve("cache_hits_total"); v != 0 {
			return fmt.Errorf("plan-cold: %v response-cache hits, want 0", v)
		}
		if v := d.serve("cost_store_hits_total") + d.serve("cost_store_shared_total"); v != 0 {
			return fmt.Errorf("plan-cold: %v cost-store hits, want 0", v)
		}
		return nil
	},
}

// ---- sweep-warm ----

var sweepWarm = &workload{
	name:  "sweep-warm",
	why:   "new global_batch points of one GPT-3 family over a loaded cost-store snapshot, so store reads and Algorithm 1 should dominate",
	timed: opSweep,
	tailQ: 95,
	prepare: func(ctx context.Context, b *bench) error {
		// The snapshot is written by the same binary: plan the family once,
		// then drain the daemon, which saves its cost store.
		b.snapshot = filepath.Join(b.dir, "family.snapshot")
		d, err := spawn(ctx, b.bin, filepath.Join(b.dir, "snapshot"), []string{"-cost-store-path", b.snapshot})
		if err != nil {
			return err
		}
		o, err := planOp(opPlan, b.sweep.snapshotRequest())
		if err != nil {
			d.kill()
			return err
		}
		c := newClient(d.base)
		err = primeOp(ctx, b, c, o)
		c.close()
		if err != nil {
			d.kill()
			return err
		}
		if err := d.stop(); err != nil {
			return err
		}
		if _, err := os.Stat(b.snapshot); err != nil {
			return fmt.Errorf("daemon wrote no cost-store snapshot: %v", err)
		}
		// Reference plans for two points among the first ten timed sweeps.
		for _, k := range refSample(b.seed, 12, 0, 10*sweepPoints, 2) {
			pts, err := b.sweep.timedSweep(k / sweepPoints).Expand()
			if err != nil {
				return err
			}
			if err := addRef(b, pts[k%sweepPoints]); err != nil {
				return err
			}
		}
		return nil
	},
	args: func(b *bench, dir string) ([]string, error) {
		// Each daemon gets its own copy: a drained daemon overwrites its
		// snapshot, and every set-up must load the same one.
		data, err := os.ReadFile(b.snapshot)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		p := filepath.Join(dir, "store.snapshot")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return nil, err
		}
		return []string{"-cost-store-path", p}, nil
	},
	prime: func(ctx context.Context, b *bench, c *client) error {
		for s := 0; s < primeSweeps; s++ {
			o, err := sweepOp(b.sweep.primeSweep(s))
			if err != nil {
				return err
			}
			if err := primeOp(ctx, b, c, o); err != nil {
				return err
			}
		}
		return nil
	},
	streams: func(b *bench) ([]stream, error) {
		return []stream{&funcStream{f: func(i int) (op, error) {
			return sweepOp(b.sweep.timedSweep(i))
		}}}, nil
	},
	integrity: func(d metrics) error {
		if v := d.serve("sweep_points_cached_total"); v != 0 {
			return fmt.Errorf("sweep-warm: %v points served from the response cache, want 0", v)
		}
		if v := d.serve("sweep_points_deduped_total"); v != 0 {
			return fmt.Errorf("sweep-warm: %v points deduplicated, want 0", v)
		}
		return nil
	},
}

// ---- serve-mixed ----

var serveMixed = &workload{
	name:  "serve-mixed",
	why:   "two closed-loop clients: cached plans, warm replans and simulates, so HTTP, the response cache, admission and the incremental path carry the load",
	timed: opReplan,
	tailQ: 99,
	prepare: func(ctx context.Context, b *bench) error {
		for _, i := range refSample(b.seed, 13, 0, len(b.mixed.hot), 2) {
			h := b.mixed.hot[i]
			req, err := request.ParsePlanRequest(h.body)
			if err != nil {
				return err
			}
			if err := addRef(b, req); err != nil {
				return err
			}
		}
		return nil
	},
	args: func(*bench, string) ([]string, error) { return nil, nil },
	prime: func(ctx context.Context, b *bench, c *client) error {
		for _, o := range b.mixed.hot {
			if err := primeOp(ctx, b, c, o); err != nil {
				return err
			}
		}
		for run := range b.mixed.runs {
			if err := primeOp(ctx, b, c, b.mixed.primeReplan(run)); err != nil {
				return err
			}
		}
		return nil
	},
	streams: func(b *bench) ([]stream, error) {
		out := make([]stream, mixConns)
		for c := range out {
			out[c] = b.mixed.stream(b.seed, c)
		}
		return out, nil
	},
	integrity: func(d metrics) error {
		if v := d.serve("replans_cold_total"); v != 0 {
			return fmt.Errorf("serve-mixed: %v cold replans in the timed phase, want 0", v)
		}
		return nil
	},
}
