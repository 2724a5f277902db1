#!/usr/bin/env bash
# Builds perfbench from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload detailed --seed 1 --seconds 36 --trace 0
#
# The build, its Go caches and everything the benchmark writes stay in
# the build directory inside the checkout ($CARGO_TARGET_DIR, default
# .bench_build). Outside a full checkout the build fails and the script
# exits non-zero without printing a result. VCS stamping is off: the
# checkout need not be a repository, and one nested in another user's
# repository would otherwise fail the build on "git status".
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/perfbench/gotmp"
export GOCACHE="$build/perfbench/gocache" GOPATH="$build/perfbench/gopath" GOMODCACHE="$build/perfbench/gomod" \
	GOTMPDIR="$build/perfbench/gotmp" XDG_CONFIG_HOME="$build/perfbench/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd perfbench && go build -trimpath -buildvcs=false -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
