#!/usr/bin/env bash
# Builds scfs-bench from the checkout's source and runs it. Everything the
# build and the run leave behind goes under .bench_build at the root of the
# checkout: the go build cache, the binary, the mounts' disk caches and the
# span files of traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"

# Keep the go command's own files inside the checkout too: caches, module
# path, and the per-user configuration directory it keeps counters in.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local

bin="$build/scfs-bench"
# Rebuild when a source file is newer than the binary; a fresh checkout has
# no binary at all.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name 'go.mod' -o -name '*.s' \) -newer "$bin" -print -quit)" ]; then
	(cd "$here" && go build -o "$bin" ./cmd/scfs-bench)
fi
exec "$bin" -build "$build" "$@"
