#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see main.go or README.md for them).
# All build output stays inside the checkout, under .bench_build/: the Go
# build cache, temporary files and the compiled binaries.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

(cd "$here" && go build -o "$out/bin/fadewich-bench" .)
cd "$root"
exec "$out/bin/fadewich-bench" -root "$root" "$@"
