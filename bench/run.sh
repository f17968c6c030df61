#!/usr/bin/env bash
# Builds the harness from source and runs it from the checkout root. The
# Go build cache, the toolchain's temporary and configuration files, the
# binaries and every work file stay under .bench_build/ in the checkout, so
# a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
