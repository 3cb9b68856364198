// Command loadbench is the end-to-end benchmark of the adapiped planner
// daemon. It spawns the built daemon at its shipped defaults, drives it over
// HTTP in closed loops with seeded paper-scale requests, checks every reply,
// and prints one JSON result line.
//
// Usage (from the repository root, after building both binaries; run.sh
// does both):
//
//	loadbench -daemon bin/adapiped --workload plan-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a traced run
// of the same seed. See README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a measured run sets up (spawn, /healthz,
// priming); setup_s is the median, and the last daemon serves the timed
// phase.
const setupReps = 5

// bench is the state of one benchmark run.
type bench struct {
	w       *workload
	seed    int64
	seconds int
	bin     string
	dir     string
	workers int
	// flags are the daemon's shipped flag defaults; storeSize is its
	// cost-store bound among them, for the in-process leg's store.
	flags     map[string]string
	storeSize int
	chk       *checker
	// measured are the arguments of the daemon the reported phase ran on.
	measured []string

	cold     *coldGen
	sweep    *sweepGen
	snapshot string
	mixed    *mixedSet
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan-cold, sweep-warm or serve-mixed")
	seed := fs.Int64("seed", 1, "seed of the generated requests")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds (with --trace 1: alternating untraced and traced windows)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	bin := fs.String("daemon", ".bench_build/adapiped", "built adapiped binary")
	dir := fs.String("work", ".bench_build/work", "scratch directory for daemon logs, snapshots and the written trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "loadbench: %v\n", err)
		return 1
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		return fail(err)
	}
	runDir := filepath.Join(abs, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)

	b, err := newBench(w, *seed)
	if err != nil {
		return fail(err)
	}
	b.seconds, b.bin, b.dir, b.workers = *seconds, *bin, runDir, runtime.GOMAXPROCS(0)
	if b.flags, err = daemonFlags(b.bin); err != nil {
		return fail(err)
	}
	if b.storeSize, err = strconv.Atoi(b.flags["cost-store-size"]); err != nil {
		return fail(fmt.Errorf("daemon cost-store-size default: %v", err))
	}

	layers, err := layerCounts()
	if err != nil {
		return fail(err)
	}
	b.chk = &checker{layers: layers, refs: map[string][]byte{}}
	if err := w.prepare(ctx, b); err != nil {
		return fail(fmt.Errorf("preparing %s: %v", w.name, err))
	}

	var out *outcome
	if *traced == 0 {
		out, err = b.measure(ctx, stdout)
	} else {
		out, err = b.traceRun(ctx, stdout, filepath.Join(abs, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed)))
	}
	if err != nil {
		return fail(err)
	}
	env, err := stamp(b)
	if err != nil {
		return fail(err)
	}
	envJSON, err := json.Marshal(env)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "loadbench env: %s\n", envJSON)
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// setupOnce spawns a daemon and primes it; the returned duration runs from
// the spawn to the end of priming.
func (b *bench) setupOnce(ctx context.Context, k int) (*daemon, time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("daemon%d", k))
	wargs, err := b.w.args(b, dir)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err := spawn(ctx, b.bin, dir, wargs)
	if err != nil {
		return nil, 0, err
	}
	if n, err := bannerWorkers(d.banner); err != nil || n != runtime.NumCPU() {
		d.kill()
		return nil, 0, fmt.Errorf("daemon banner %q: want %d workers (GOMAXPROCS = nproc)", d.banner, runtime.NumCPU())
	}
	c := newClient(d.base)
	err = b.w.prime(ctx, b, c)
	c.close()
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// timedPhase is one timed phase with the /metrics and /proc readings
// around it.
type timedPhase struct {
	*phase
	delta, after metrics
	cpu          time.Duration
	rss          int64
}

// timedOn runs a timed phase on d: drive gets the workload's fresh streams
// and runs the closed loops. The /metrics and /proc readings are taken
// around it, then the workload's integrity check is applied.
func (b *bench) timedOn(d *daemon, drive func(streams []stream) (*phase, error)) (*timedPhase, error) {
	streams, err := b.w.streams(b)
	if err != nil {
		return nil, err
	}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	ph, err := drive(streams)
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	tp := &timedPhase{phase: ph, delta: after.sub(before), after: after, rss: rss,
		cpu: cpu1.utime + cpu1.stime - cpu0.utime - cpu0.stime}
	if err := b.w.integrity(tp.delta); err != nil {
		ph.failed += ph.ops
		ph.errs = append(ph.errs, err.Error())
	}
	return tp, nil
}

// report prints a phase's failures and counters on the log lines above the
// result.
func (b *bench) report(stdout io.Writer, label string, tp *timedPhase) {
	for _, e := range tp.errs {
		fmt.Fprintf(stdout, "loadbench: %s FAIL %s\n", label, e)
	}
	d := tp.delta
	ops := float64(tp.ops)
	fmt.Fprintf(stdout, "loadbench: %s ops=%d attempted=%d failed=%d elapsed=%.3fs ref_checks=%d knapsack_runs/op=%.2f store_hits=%v store_misses=%v store_evictions=%v resp_cache_hits=%v replans_warm=%v replans_cold=%v\n",
		label, tp.ops, tp.attempted, tp.failed, tp.elapsed.Seconds(), tp.refChecks,
		ratio(d.serve("knapsack_runs_total"), ops), d.serve("cost_store_hits_total"), d.serve("cost_store_misses_total"),
		d.serve("cost_store_evictions_total"), d.serve("cache_hits_total"), d.serve("replans_incremental_total"), d.serve("replans_cold_total"))
}

// measure is the untraced run: the end-to-end metrics.
func (b *bench) measure(ctx context.Context, stdout io.Writer) (*outcome, error) {
	var setups []float64
	var d *daemon
	for k := 0; k < setupReps; k++ {
		dk, dur, err := b.setupOnce(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		setups = append(setups, dur.Seconds())
		if k < setupReps-1 {
			dk.kill()
		} else {
			d = dk
		}
	}
	b.measured = d.args
	tp, err := b.timedOn(d, func(streams []stream) (*phase, error) {
		return runPhase(ctx, d.base, streams, time.Duration(b.seconds)*time.Second, b.chk, nil)
	})
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	b.report(stdout, "timed", tp)

	lat := sortedMs(tp.lat[b.w.timed])
	if b.w.timed == opSweep {
		lat = sortedMs(tp.perPoint)
	}
	q, _, ok := tail(lat)
	if !ok && tp.failed == 0 {
		return nil, fmt.Errorf("only %d %s samples: too few for a tail percentile (raise --seconds)", len(lat), b.w.timed)
	}
	beyond := len(lat) - rankOf(b.w.tailQ, len(lat))
	fmt.Fprintf(stdout, "loadbench: setup_s runs %v\n", setups)
	fmt.Fprintf(stdout, "loadbench: latency_tail_ms is p%g over %d %s samples, %d beyond it (the tail rule gives p%g here)\n", b.w.tailQ, len(lat), b.w.timed, beyond, q)
	if beyond < minBeyond {
		fmt.Fprintf(stdout, "loadbench: FLAG latency_tail_ms rests on %d samples beyond p%g, fewer than %d: this run measured too few %s requests for its tail to be compared\n", beyond, b.w.tailQ, minBeyond, b.w.timed)
	}
	fmt.Fprintf(stdout, "loadbench: %s latency ms at", b.w.timed)
	for _, p := range tailLadder {
		fmt.Fprintf(stdout, " p%g=%.3f", p, percentile(lat, p))
	}
	fmt.Fprintln(stdout)
	ops := float64(tp.ops)
	out := &outcome{
		Correct:   tp.failed == 0,
		Attempted: tp.attempted,
		Failed:    tp.failed,
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"throughput_ops_s":     {tp.throughput(), "1/s"},
			"latency_p50_ms":       {percentile(lat, 50), "ms"},
			"latency_tail_ms":      {percentile(lat, b.w.tailQ), "ms"},
			"daemon_cpu_ms_per_op": {ratio(ms(tp.cpu), ops), "ms"},
			"daemon_peak_rss_mib":  {float64(tp.rss) / (1 << 20), "MiB"},
			"success_ratio":        {ratio(float64(tp.attempted-tp.failed), float64(tp.attempted)), "ratio"},
		},
	}
	return out, nil
}
