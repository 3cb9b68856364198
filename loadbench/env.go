package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envStamp records what a result was measured on and with.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"daemon_workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// DaemonArgs are the measured daemon's arguments, all set by the
	// benchmark; FlagSet is every flag's shipped default, which the daemon
	// runs with for every flag not in DaemonArgs.
	DaemonArgs []string          `json:"daemon_args"`
	FlagSet    map[string]string `json:"daemon_flags"`
	// DroppedEnv lists runtime variables removed from the daemon's
	// environment so it runs at its defaults.
	DroppedEnv []string `json:"dropped_env,omitempty"`
}

// stamp builds the environment record of a run; b.measured are the
// arguments of the daemon the reported phase ran on.
func stamp(b *bench) (*envStamp, error) {
	commit, err := sourceID(".")
	if err != nil {
		return nil, err
	}
	s := &envStamp{
		Workload: b.w.name, Seed: b.seed, Seconds: b.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		DaemonArgs: b.measured, FlagSet: b.flags,
	}
	s.Workers, err = strconv.Atoi(b.flags["workers"])
	if err != nil {
		return nil, fmt.Errorf("daemon workers flag: %v", err)
	}
	for _, k := range runtimeEnv {
		if v, ok := os.LookupEnv(k); ok {
			s.DroppedEnv = append(s.DroppedEnv, k+"="+v)
		}
	}
	return s, nil
}

// sourceID identifies the code measured: the git commit when the checkout
// has one, otherwise a SHA-256 over the Go sources and go.mod files under
// root (a benchmark checkout need not be a git repository).
func sourceID(root string) (string, error) {
	if c, ok := gitHead(root); ok {
		return c, nil
	}
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

// gitHead reads HEAD's commit from root/.git without running git.
func gitHead(root string) (string, bool) {
	gd := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gd, "HEAD"))
	if err != nil {
		return "", false
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref, true
	}
	if b, err := os.ReadFile(filepath.Join(gd, ref)); err == nil {
		return strings.TrimSpace(string(b)), true
	}
	packed, err := os.ReadFile(filepath.Join(gd, "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0], true
		}
	}
	return "", false
}
