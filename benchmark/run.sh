#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given (BENCHMARK.json's command).
# Everything the Go toolchain writes — build cache, module cache, telemetry —
# is kept inside .bench_build/ too, so a run touches nothing outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
	export GOPROXY=off GOTOOLCHAIN=local
	go build -C "$root/benchmark" -o "$build/tincabench" .
)
cd "$root"
exec "$build/tincabench" "$@"
