#!/bin/sh
# Build the binaries under test (vrpc, vrpd) and the benchmark from source,
# then run one workload:
#
#   sh perfbench/run.sh --workload batch-j1|serve-warm|serve-edit \
#      --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr; a failed
# build exits 2 without a result line.
set -u
# The shared dune cache lives outside the checkout, so it stays off.
dune build --root . --cache=disabled bin/vrpc.exe bin/vrpd.exe perfbench/bench.exe 1>&2 || exit 2
exec ./_build/default/perfbench/bench.exe "$@"
