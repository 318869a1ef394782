#!/bin/sh
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   sh perfbench/run.sh --workload packet-4k --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build in the checkout. Outside a full
# checkout (no repository module beside perfbench/) the build fails and
# the script exits non-zero without printing a result.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

# Provenance: the commit when the checkout is a git repository, and a
# digest of the Go sources and module files either way.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
source=$(find "$root" -path "$out" -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs cat | cksum | cut -d' ' -f1)

PERFBENCH_COMMIT=$commit PERFBENCH_SOURCE=$source exec "$out/perfbench" "$@"
