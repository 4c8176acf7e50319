#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload active_lp --seed 1 --seconds 20 --trace 0
#
# Without --workload it runs active_lp, serve_closed and sim_rolling in
# turn with the other arguments. Build output goes to stderr; stdout
# carries only the benchmark's table, report and result lines.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet -j 2 ./perfbench/main.exe 1>&2
exe=_build/default/perfbench/main.exe
case " $* " in
  *" --workload "*) exec "$exe" "$@" ;;
  *) for w in active_lp serve_closed sim_rolling; do "$exe" --workload "$w" "$@"; done ;;
esac
