#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 runs the timed binary (the public facade and the daemon's HTTP
# API only); --trace 1 runs the traced binary (outer spans on the real code
# path plus the stage driver). They are separate binaries so that an
# internal signature change can break only the traced run. Every build
# artefact and scratch file stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[$i]}" == "--trace" && $((i + 1)) -lt ${#args[@]} ]]; then
		trace="${args[$((i + 1))]}"
	fi
done

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off

pkg=.
bin="$build/perfbench-timed"
if [[ "$trace" == "1" ]]; then
	pkg=./traced
	bin="$build/perfbench-traced"
fi
(cd "$root/perfbench" && go build -o "$bin" "$pkg")
exec "$bin" "$@"
