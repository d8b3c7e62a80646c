#!/usr/bin/env bash
# Builds sparqld, sparqlanalyze and the perfbench program from the checkout
# it is run in, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-log --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sparqld" ] || [ ! -d "$root/cmd/sparqlanalyze" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sparqld, cmd/sparqlanalyze)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/work"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GONOSUMDB= GOSUMDB=off

go build -o "$out/bin/" ./cmd/sparqld ./cmd/sparqlanalyze
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
