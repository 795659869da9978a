#!/usr/bin/env bash
# Builds the e2ebench harness from source and runs it with the given
# flags. Run from the repository root:
#
#   bash e2ebench/run.sh --workload lib_word --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, home and
# config directories) goes under the build directory, $CARGO_TARGET_DIR
# if set and .bench_build otherwise, so a run touches nothing outside
# the checkout. The build fails, and the script exits non-zero without
# printing a result, when the repository's go.mod is not beside it.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" --work-dir "$build/e2ebench-work" "$@"
