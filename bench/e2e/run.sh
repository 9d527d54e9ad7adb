#!/usr/bin/env bash
# Builds the benchmark and the gklockd daemon from source in this
# checkout, then runs it; arguments go to `bench_e2e.exe run`, e.g.
#   bash bench/e2e/run.sh --workload gk_sat --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/bench_e2e.exe bin/gklockd.exe >&2
exec ./_build/default/bench/e2e/bench_e2e.exe run "$@"
