#!/usr/bin/env bash
# Builds adapiped and the load generator from source, then runs the load
# generator with the given arguments. Run from the repository root:
#
#   bash loadbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and all run files stay under
# .bench_build/ in the current directory. Any build failure (for example a
# directory without the daemon's sources) exits non-zero before a result is
# printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config
# directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

if [[ ! -f go.mod || ! -d cmd/adapiped ]]; then
	echo "loadbench: no adapiped sources under $PWD (run from the repository root)" >&2
	exit 1
fi
# With telemetry on or local, every go command may start a detached upload
# process (its own session) that outlives the build. Turn it off first:
# "go telemetry off" is the one go command that never starts it.
go telemetry off
go build -o "$out/adapiped" ./cmd/adapiped
go -C loadbench build -o "$out/loadbench" .
exec "$out/loadbench" -daemon "$out/adapiped" -work "$out/work" "$@"
