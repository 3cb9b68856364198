package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeEnv are environment variables that would change the daemon's
// defaults (GOMAXPROCS sets its worker count); they are removed from the
// daemon's environment so it runs as shipped.
var runtimeEnv = []string{"GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG"}

// parseFlagDefaults reads the flag-package usage text (`adapiped -h`) and
// returns each flag's default value as printed. The flag package prints no
// default for a zero value: "" for strings, "false" for booleans.
func parseFlagDefaults(usage string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			f := strings.Fields(strings.TrimPrefix(line, "  -"))
			if len(f) == 0 {
				continue
			}
			name = f[0]
			out[name] = ""
			if len(f) == 1 {
				out[name] = "false" // a boolean flag: usage names no type
			}
			continue
		}
		if name == "" {
			continue
		}
		if i := strings.LastIndex(line, "(default "); i >= 0 && strings.HasSuffix(line, ")") {
			v := line[i+len("(default ") : len(line)-1]
			out[name] = strings.Trim(v, `"`)
		}
	}
	return out
}

// daemonFlags runs `bin -h` and returns every flag's shipped default. The
// benchmark passes the daemon no flags but its own -addr, -addr-file and
// (sweep-warm) -cost-store-path, so these are the settings it measures and
// no run can change them: enlarging the cost store to make sweep-warm look
// warm, or changing the worker count, is a different benchmark and belongs
// in its own change.
func daemonFlags(bin string) (map[string]string, error) {
	var buf bytes.Buffer
	cmd := exec.Command(bin, "-h")
	cmd.Env = daemonEnv(os.Environ())
	cmd.Stdout, cmd.Stderr = &buf, &buf
	_ = cmd.Run() // the flag package exits 0 or 2 on -h; the text is what matters
	set := parseFlagDefaults(buf.String())
	if len(set) == 0 {
		return nil, fmt.Errorf("reading %s -h: no flags in %q", bin, buf.String())
	}
	return set, nil
}

// ctlClient carries the untimed control requests (/healthz, /metrics); the
// timeout keeps a wedged daemon from hanging the benchmark.
var ctlClient = &http.Client{Timeout: 10 * time.Second}

// daemon is one running adapiped process.
type daemon struct {
	// args are the daemon's command-line arguments.
	args   []string
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	banner string
	exited chan struct{}
	err    error
}

// spawn starts the daemon binary with the harness flags plus args, waits
// for its listen address and for /healthz to answer. dir receives the
// address file and the daemon's log.
func spawn(ctx context.Context, bin, dir string, args []string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = daemonEnv(os.Environ())
	// Kill the daemon if the benchmark itself dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{args: full, cmd: cmd, logf: logf, exited: make(chan struct{})}
	go func() { d.err = cmd.Wait(); close(d.exited) }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + string(b)
			break
		}
		select {
		case <-d.exited:
			defer logf.Close()
			return nil, fmt.Errorf("daemon exited before listening: %v\n%s", d.err, d.logTail())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon did not write its address within 30s\n%s", d.logTail())
		}
	}
	for {
		resp, err := ctlClient.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon not healthy within 30s: %v\n%s", err, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
	d.banner = d.readBanner()
	return d, nil
}

// daemonEnv drops the runtime overrides in runtimeEnv from env.
func daemonEnv(env []string) []string {
	out := env[:0:0]
outer:
	for _, kv := range env {
		for _, k := range runtimeEnv {
			if strings.HasPrefix(kv, k+"=") {
				continue outer
			}
		}
		out = append(out, kv)
	}
	return out
}

// readBanner returns the daemon's "listening on" line, which reports the
// cache, admission and worker settings it actually runs with.
func (d *daemon) readBanner() string {
	b, err := os.ReadFile(d.logf.Name())
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, "listening on") {
			return line
		}
	}
	return ""
}

// bannerWorkers extracts the worker count from the daemon's banner.
func bannerWorkers(banner string) (int, error) {
	i := strings.LastIndex(banner, " workers)")
	if i < 0 {
		return 0, fmt.Errorf("no worker count in banner %q", banner)
	}
	f := strings.Fields(banner[:i])
	return strconv.Atoi(f[len(f)-1])
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop drains the daemon with SIGTERM and waits for it, killing it if the
// drain takes longer than 15s. It reports an unclean exit.
func (d *daemon) stop() error {
	defer d.logf.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not drain within 15s")
	}
	if d.err != nil {
		return fmt.Errorf("daemon exited uncleanly: %v\n%s", d.err, d.logTail())
	}
	return nil
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
}

// procCPU is a process's consumed CPU time from /proc/<pid>/stat.
type procCPU struct{ utime, stime time.Duration }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat reads utime and stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (procCPU, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return procCPU{}, fmt.Errorf("malformed stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("short stat %q", stat)
	}
	u, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return procCPU{}, err
	}
	s, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return procCPU{}, err
	}
	tick := time.Second / clockTicks
	return procCPU{utime: time.Duration(u) * tick, stime: time.Duration(s) * tick}, nil
}

// parseVmHWM reads the peak resident set size from the contents of
// /proc/<pid>/status, in bytes.
func parseVmHWM(status string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024, nil
	}
	return 0, errors.New("no VmHWM line")
}

func (d *daemon) cpu() (procCPU, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(string(b))
}

func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// metrics is one /metrics scrape: sample name (labels included, as printed)
// to value.
type metrics map[string]float64

// parseMetrics parses Prometheus text exposition, skipping comments.
func parseMetrics(text string) (metrics, error) {
	m := metrics{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// sub returns the per-sample difference m - before.
func (m metrics) sub(before metrics) metrics {
	out := metrics{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// serve returns a serving counter by its short name
// ("cache_hits_total" for adapipe_serve_cache_hits_total).
func (m metrics) serve(name string) float64 { return m["adapipe_serve_"+name] }

func (d *daemon) scrape() (metrics, error) {
	resp, err := ctlClient.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return parseMetrics(string(b))
}
