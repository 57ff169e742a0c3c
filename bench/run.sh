#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs it
# from the checkout's root with every argument passed on:
#
#   bash bench/run.sh -workload kernels -seed 1 -seconds 10 -trace 0
#
# The binary, the Go build cache (also used by the generated workload's
# runner builds) and temporary files stay under .bench_build/ in the
# checkout. The build needs the repository's go.mod, so a copy of bench/
# alone fails here, before printing any result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/golisa-bench" .
# Pin the benchmark, and the runner processes and builds it starts, to the
# highest-numbered CPU it may use, so that the probe between jobs
# (bench/quiet.go) reads the core every job runs on.
cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //') || cpus=
cpu=${cpus##*[,-]}
if [[ $cpu =~ ^[0-9]+$ ]]; then
	exec taskset -c "$cpu" "$out/golisa-bench" "$@"
fi
exec "$out/golisa-bench" "$@"
