#!/usr/bin/env bash
# Builds the wire benchmark from source and runs it with the given flags:
#
#   bash wirebench/run.sh --workload portal2d --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a tagspin checkout. The binary, the Go build cache
# and the traced run's spans go under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/locsrv" ]]; then
	echo "wirebench: run from the root of a tagspin checkout (no go.mod or internal/locsrv in $root)" >&2
	exit 2
fi
out="$root/.bench_build/wirebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/wirebench" && go build -o "$out/wirebench" .) >&2
exec "$out/wirebench" "$@"
