#!/bin/sh
# Build bdbms_serve and bdbench from source, then run one E20 workload:
#
#   sh bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of a bdbms checkout.  Everything it writes stays
# in the checkout (_build/ and _bdbench/).  The last line of its standard
# output is the run's JSON summary; --trace 1 adds the traced run and
# reports the per-layer metrics instead of the end-to-end ones.
set -eu

workload= seed= seconds= trace=0
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
  case "$1" in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
if [ -z "$workload" ] || [ -z "$seed" ] || [ -z "$seconds" ]; then
  echo "usage: run.sh --workload W --seed N --seconds S [--trace 0|1]" >&2
  exit 2
fi
for f in dune-project bin/bdbms_serve.ml lib/server/server.ml; do
  [ -e "$f" ] || { echo "run.sh: $f is missing; run from the root of a bdbms checkout" >&2; exit 2; }
done

# no shared dune cache: the build stays inside the checkout
DUNE_CACHE=disabled dune build --root . ./bin/bdbms_serve.exe ./bench/e2e/bdbench.exe 1>&2

set -- run --server _build/default/bin/bdbms_serve.exe --workload "$workload" \
  --seed "$seed" --seconds "$seconds"
if [ "$trace" = 1 ]; then
  set -- "$@" --traced --trace-out "_bdbench/trace-$workload.jsonl"
fi
exec _build/default/bench/e2e/bdbench.exe "$@"
