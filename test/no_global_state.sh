#!/bin/sh
# Usage: sh no_global_state.sh [LIBDIR]   (default ../lib)
#
# Fails, listing the offending lines, when LIBDIR holds process-wide
# mutable state or a link-order trick. Three line-based checks:
#
#   - an .ml line that binds a plain name (a `let` with no parameters)
#     to a value built with ref, Atomic.make, Hashtbl.create or
#     Mutex.create, unless the line ends in `in` (a local binding);
#   - any Domain.DLS;
#   - a -linkall flag in a dune file (outside a comment).
#
# It is a heuristic: a binding split over several lines, or a mutable
# field in a top-level record, escapes it.
dir=${1:-../lib}
status=0
report() {
  if [ -n "$2" ]; then
    printf '%s\n%s\n' "$1" "$2" >&2
    status=1
  fi
}
report "top-level mutable binding:" "$(grep -rnE --include='*.ml' \
  "^[[:space:]]*let[[:space:]]+[a-z_][A-Za-z0-9_']*[[:space:]]*(:[^=]*)?=.*\b(ref|Atomic\.make|Hashtbl\.create|Mutex\.create)\b" \
  "$dir" | grep -vE '\bin[[:space:]]*$')"
report "domain-local storage:" "$(grep -rn --include='*.ml' --include='*.mli' 'Domain\.DLS' "$dir")"
report "link-order trick:" "$(grep -rnE --include=dune '^[^;]*-linkall' "$dir")"
exit $status
