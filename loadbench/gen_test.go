package main

import (
	"bytes"
	"fmt"
	"testing"

	"adapipe/internal/request"
)

// firstOps returns the priming requests and the first n timed requests of
// each connection of workload w under seed.
func firstOps(t *testing.T, w *workload, seed int64, n int) []op {
	t.Helper()
	b, err := newBench(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []op
	switch w {
	case planCold:
		for i := 0; i < coldPrime; i++ {
			o, err := planOp(opPlan, b.cold.request(i))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o)
		}
	case sweepWarm:
		o, err := planOp(opPlan, b.sweep.snapshotRequest())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
		for s := 0; s < primeSweeps; s++ {
			o, err := sweepOp(b.sweep.primeSweep(s))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o)
		}
	case serveMixed:
		out = append(out, b.mixed.hot...)
		for run := range b.mixed.runs {
			out = append(out, b.mixed.primeReplan(run))
		}
	}
	streams, err := w.streams(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		for i := 0; i < n; i++ {
			o, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, o)
		}
	}
	return out
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := firstOps(t, w, 7, 200)
		b := firstOps(t, w, 7, 200)
		c := firstOps(t, w, 8, 200)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d requests for one seed", w.name, len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].kind != b[i].kind {
				t.Fatalf("%s: request %d differs between two streams of seed 7", w.name, i)
			}
			if same && !bytes.Equal(a[i].body, c[i].body) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", w.name)
		}
	}
}

// TestBodiesParse sends every generated body through the daemon's parsers
// and checks the hash the response check expects.
func TestBodiesParse(t *testing.T) {
	for _, w := range workloads {
		for i, o := range firstOps(t, w, 3, 120) {
			var hash string
			var err error
			switch o.kind {
			case opPlan, opSimulate:
				var r request.PlanRequest
				if r, err = request.ParsePlanRequest(o.body); err == nil {
					hash, err = r.Hash()
				}
			case opSweep:
				var r request.SweepRequest
				if r, err = request.ParseSweepRequest(o.body); err == nil {
					hash, err = r.Hash()
				}
				pts, err2 := r.Expand()
				if err2 != nil || len(pts) != len(o.points) {
					t.Fatalf("%s request %d: %d points, want %d (%v)", w.name, i, len(pts), len(o.points), err2)
				}
			case opReplan:
				var r request.ReplanRequest
				if r, err = request.ParseReplanRequest(o.body); err == nil {
					hash, err = r.Request.Hash()
				}
			}
			if err != nil {
				t.Fatalf("%s request %d (%s) rejected: %v", w.name, i, o.body, err)
			}
			if hash != o.hash {
				t.Fatalf("%s request %d: hash %s, op carries %s", w.name, i, hash, o.hash)
			}
		}
	}
}

// TestPlanColdFamiliesDistinct: every plan-cold request, priming included,
// is its own cost family, so none can hit the response cache or the store.
func TestPlanColdFamiliesDistinct(t *testing.T) {
	seen := map[string]int{}
	for i, o := range firstOps(t, planCold, 5, 5000) {
		r, err := request.ParsePlanRequest(o.body)
		if err != nil {
			t.Fatal(err)
		}
		fam := fmt.Sprintf("%s/%s/%g", r.Model, r.Cluster, r.MemoryReserve)
		if j, dup := seen[fam]; dup {
			t.Fatalf("requests %d and %d share cost family %s", j, i, fam)
		}
		seen[fam] = i
		if r.MemoryReserve < 0.1 || r.MemoryReserve >= 0.2 {
			t.Fatalf("request %d: memory_reserve %g outside [0.1, 0.2)", i, r.MemoryReserve)
		}
	}
}

// TestSweepPointsDistinct: sweep-warm points are distinct from one another,
// from the priming sweeps and from the request that writes the snapshot.
func TestSweepPointsDistinct(t *testing.T) {
	seen := map[string]int{}
	for i, o := range firstOps(t, sweepWarm, 9, 2000) {
		hashes := o.points
		if o.kind == opPlan {
			hashes = []string{o.hash}
		}
		for _, h := range hashes {
			if j, dup := seen[h]; dup {
				t.Fatalf("request %d repeats a point of request %d", i, j)
			}
			seen[h] = i
		}
	}
}

// TestMixedComposition: every block of a serve-mixed stream holds exactly
// the fixed numbers of replans and simulates, and a connection replans only
// its own training runs.
func TestMixedComposition(t *testing.T) {
	b, err := newBench(serveMixed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < mixConns; c++ {
		s := b.mixed.stream(b.seed, c)
		for blk := 0; blk < 50; blk++ {
			counts := map[opKind]int{}
			for i := 0; i < mixBlock; i++ {
				o, err := s.next()
				if err != nil {
					t.Fatal(err)
				}
				counts[o.kind]++
				if o.kind == opReplan && o.run/runsPer != c {
					t.Fatalf("connection %d replans training run %d", c, o.run)
				}
			}
			if counts[opReplan] != mixReplans || counts[opSimulate] != mixSims || counts[opPlan] != mixBlock-mixReplans-mixSims {
				t.Fatalf("connection %d block %d composition %v", c, blk, counts)
			}
		}
	}
}
