#!/usr/bin/env bash
# Builds mrbench from source and runs it with the given arguments. Run it
# from the repository root: the build, the Go caches and any other file
# the go command writes stay under .bench_build/ there, and no module is
# downloaded.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off GOENV=off GOWORK=off

go build -C cmd/mrbench -o "$build/mrbench" .
exec "$build/mrbench" "$@"
