#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it from the checkout's root. Everything it writes (Go build cache, binary,
# WAL directories, span files) stays under .bench_build/perfbench.
#
#   bash perfbench/run.sh --workload fanout8 --seed 1 --seconds 30 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/participant.go" ]; then
	echo "perfbench: no b2b sources next to $here; run it from a checkout of the repository" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench.bin" .)
cd "$root"
exec "$out/perfbench.bin" -workdir "$out/work" "$@"
