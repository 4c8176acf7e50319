#!/bin/sh
# One-command reproduction: build, run the full test suite and every
# experiment, recording outputs next to this script. Exits non-zero as
# soon as the build, a test or the bench fails.
set -e
cd "$(dirname "$0")"

# Runs a command with its output copied to a log file, and returns the
# command's own status. A pipe into tee would return tee's status, and
# POSIX sh has no pipefail.
logged() {
  log=$1
  shift
  status=0
  "$@" > "$log" 2>&1 || status=$?
  cat "$log"
  return "$status"
}

dune build @all
logged test_output.txt dune runtest --force --no-buffer
logged bench_output.txt dune exec bench/main.exe
echo "done: see test_output.txt, bench_output.txt, EXPERIMENTS.md"
