#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it
# with the given arguments. Every build artifact (binary, Go build cache,
# temporary build files, Go config) stays under .bench_build at the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
(
	cd "$root/servebench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off \
		go build -o "$out/servebench" .
)
cd "$root"
exec "$out/servebench" "$@"
