package main

import (
	"testing"
	"time"

	"adapipe/internal/request"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n     int
		q, v  float64
		ok    bool
		title string
	}{
		{9, 0, 0, false, "fewer than ten samples beyond even the median"},
		{20, 50, 10, true, "median has exactly ten beyond"},
		{99, 50, 50, true, "p90 has nine beyond"},
		{100, 90, 90, true, "p90 has exactly ten beyond"},
		{999, 95, 950, true, "p99 (rank 990) has nine beyond"},
		{1000, 99, 990, true, "p99 has exactly ten beyond"},
		{10000, 99.9, 9990, true, "p99.9 has exactly ten beyond"},
	} {
		q, v, ok := tail(seq(tc.n))
		if q != tc.q || v != tc.v || ok != tc.ok {
			t.Errorf("n=%d (%s): tail = p%g %g %v, want p%g %g %v", tc.n, tc.title, q, v, ok, tc.q, tc.v, tc.ok)
		}
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5 (nearest rank)", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	sp := func(name, cat string, tid, a, b int) span {
		return span{name: name, cat: cat, tid: tid, start: us(a), end: us(b)}
	}
	spans := []span{
		sp("client.plan", "client", 0, 0, 100),
		sp("request", "request", 0, 10, 90),
		sp("decode", "phase", 0, 10, 20),
		sp("search", "phase", 0, 20, 80),
		sp("search.prefill", "search", 0, 25, 70),
		sp("search.merge", "search", 0, 60, 70),
		sp("knapsack", "solve", 1, 26, 55),
		// Inside the first solve's interval but on another worker's track:
		// a solve is never a parent, so this one belongs to the prefill too.
		sp("knapsack", "solve", 2, 30, 50),
		sp("encode", "phase", 0, 80, 90),
	}
	parent, self := selfTimes(spans)
	wantParent := []int{-1, 0, 1, 1, 3, 4, 4, 4, 1}
	wantSelf := []int{20, 0, 10, 15, 6, 10, 29, 20, 10}
	for i := range spans {
		if parent[i] != wantParent[i] {
			t.Errorf("%s: parent %d, want %d", spans[i].name, parent[i], wantParent[i])
		}
		if self[i] != us(wantSelf[i]) {
			t.Errorf("%s: self %v, want %v", spans[i].name, self[i], us(wantSelf[i]))
		}
	}
}

func TestParseChrome(t *testing.T) {
	doc := `{"traceEvents":[{"name":"request","cat":"request","ph":"X","ts":0.5,"dur":1000.25,"pid":0,"tid":0},
	{"name":"knapsack","cat":"solve","ph":"X","ts":12.001,"dur":3,"pid":0,"tid":2}]}`
	spans, err := parseChrome([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].start != 500*time.Nanosecond || spans[0].end != 1000750*time.Nanosecond || spans[1].tid != 2 || spans[1].dur() != 3*time.Microsecond {
		t.Fatalf("parsed %+v", spans)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP adapipe_serve_requests_total accepted requests by endpoint
# TYPE adapipe_serve_requests_total gauge
adapipe_serve_requests_total{endpoint="plan"} 12
adapipe_serve_requests_total{endpoint="simulate"} 3
adapipe_serve_knapsack_runs_total 4870
adapipe_serve_search_wall_seconds_total 0.458881298
adapipe_serve_request_seconds_bucket{le="+Inf"} 15
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	if m[`adapipe_serve_requests_total{endpoint="plan"}`] != 12 || m.serve("knapsack_runs_total") != 4870 ||
		m.serve("search_wall_seconds_total") != 0.458881298 || m[`adapipe_serve_request_seconds_bucket{le="+Inf"}`] != 15 {
		t.Fatalf("parsed %v", m)
	}
	before := metrics{"adapipe_serve_knapsack_runs_total": 870}
	if d := m.sub(before); d.serve("knapsack_runs_total") != 4000 || d.serve("search_wall_seconds_total") != 0.458881298 {
		t.Fatalf("delta %v", d)
	}
	if _, err := parseMetrics("adapipe_serve_x notanumber\n"); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestParseProc(t *testing.T) {
	stat := "4242 (adapi ped) (x) S 1 4242 4242 0 -1 4194560 2520 0 0 0 731 62 0 0 20 0 9 0 1234 1000 100 18446744073709551615"
	c, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if c.utime != 7310*time.Millisecond || c.stime != 620*time.Millisecond {
		t.Fatalf("utime %v stime %v", c.utime, c.stime)
	}
	if _, err := parseProcStat("4242 adapiped"); err == nil {
		t.Fatal("stat without a command field accepted")
	}
	status := "Name:\tadapiped\nVmPeak:\t 1271052 kB\nVmHWM:\t   41616 kB\nVmRSS:\t   40000 kB\n"
	hwm, err := parseVmHWM(status)
	if err != nil || hwm != 41616*1024 {
		t.Fatalf("VmHWM %d, %v", hwm, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
}

func TestParseFlagDefaults(t *testing.T) {
	usage := `Usage of adapiped:
  -cache int
    	plan-cache bound in entries (negative disables caching) (default 256)
  -cost-store-path string
    	persist the cost store to this snapshot file (loaded on start, saved on drain; empty disables persistence)
  -quiet
    	disable per-request structured logging
  -timeout duration
    	per-request search deadline, admission queueing included (default 30s)
`
	got := parseFlagDefaults(usage)
	want := map[string]string{"cache": "256", "cost-store-path": "", "quiet": "false", "timeout": "30s"}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}
	w, err := bannerWorkers("adapiped: listening on 127.0.0.1:4000 (cache 256 entries, 2 in-flight, 30s timeout, 2 workers)")
	if err != nil || w != 2 {
		t.Fatalf("banner workers %d, %v", w, err)
	}
}

func TestCheckRanking(t *testing.T) {
	pts := []request.SweepPointResult{{Index: 0, IterSec: 3}, {Index: 1, IterSec: 1}, {Index: 2, IterSec: 2}}
	if err := checkRanking(request.SweepResponse{Points: pts, Ranking: []int{1, 2, 0}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]int{{0, 1, 2}, {1, 2}, {1, 1, 0}, {1, 2, 3}} {
		if err := checkRanking(request.SweepResponse{Points: pts, Ranking: r}); err == nil {
			t.Errorf("ranking %v accepted", r)
		}
	}
}
