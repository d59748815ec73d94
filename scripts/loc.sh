#!/usr/bin/env bash
# Rust line totals, split into library and test code.
#
# Usage: scripts/loc.sh [REV]
#   REV   count the .rs files of this git revision instead of the working
#         tree (tracked and untracked, ignored files left out)
#
# "library" is every line of a .rs file before its first `#[cfg(test)]`
# line, for files outside a `tests/` directory. "tests" is the rest of
# those files plus every file under a `tests/` directory. The vendored
# shims count; the out-of-workspace perfbench package does not. A change's
# net lines are the difference of two runs, e.g.
#   scripts/loc.sh HEAD~1; scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [[ -n "$rev" ]]; then
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$')
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files --cached --others --exclude-standard -- '*.rs')
    show() { cat "$1"; }
fi

lib=0
tests=0
for f in $files; do
    [[ "$f" == perfbench/* ]] && continue
    [[ -n "$rev" || -f "$f" ]] || continue
    if [[ "$f" == tests/* || "$f" == */tests/* ]]; then
        tests=$((tests + $(show "$f" | wc -l)))
        continue
    fi
    read -r l t < <(show "$f" | awk '
        cut == "" && /^[[:space:]]*#\[cfg\(test\)\]/ { cut = NR - 1 }
        END { if (cut == "") cut = NR; print cut, NR - cut }')
    lib=$((lib + l))
    tests=$((tests + t))
done
printf 'library %d\ntests %d\ntotal %d\n' "$lib" "$tests" "$((lib + tests))"
