#!/usr/bin/env bash
# Build the benchmark from the checkout it sits in, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. A tree without the placer sources is refused (exit 2).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from a full checkout (dune-project and lib/ missing)" >&2
  exit 2
fi
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
