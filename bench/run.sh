#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# arguments given: the command BENCHMARK.json names. Everything the build
# writes — the Go build cache included — stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# With a fresh config directory the go command would start its telemetry
# child, a detached process that outlives the run. Mode "off" stops that.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/livetm-bench" ./bench
exec "$build/livetm-bench" "$@"
