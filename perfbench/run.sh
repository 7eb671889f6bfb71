#!/usr/bin/env bash
# Builds the training-round benchmark from source and runs it. The build
# cache, the binary and the traced run's spans and profiles all stay under
# .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload train_inject --seed 1 --seconds 50 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
