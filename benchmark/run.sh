#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the caller's arguments from the
# checkout root. Fails, printing no result, when the engine source is absent.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/neograph-benchmark" .) >&2
exec "$out/neograph-benchmark" "$@"
