#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds colibri_perf from the
# checkout's sources, then runs one workload and prints its result.
#
#   bash bench/perf/run.sh --workload forward --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. The build goes to _build/ with
# dune's shared cache off, so nothing is written outside the checkout;
# build output goes to stderr so the result stays the last line of
# stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: not at the root of a colibri checkout (no dune-project, lib/ or bench/perf/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "run.sh: dune is not on PATH" >&2
  exit 2
fi

dune build --root . --cache=disabled --display=quiet ./bench/perf/colibri_perf.exe 1>&2
exec ./_build/default/bench/perf/colibri_perf.exe run "$@"
