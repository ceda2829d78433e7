#!/usr/bin/env bash
# Product-source lines per crate and in total:
#
#   scripts/loc.sh            the working tree
#   scripts/loc.sh REV        a git revision (any name `git show` takes)
#   scripts/loc.sh REV1 REV2  both revisions side by side, with each
#                             crate's change from REV1 to REV2: the
#                             "lines removed" of a change, in one command
#
# Counted: the `.rs` files under `crates/*/src` and the root `src/`, each
# cut at its first top-level `#[cfg(test)]` (the unit tests below it are
# not product code), without blank lines and `//` comment lines (doc
# comments included). The root package is listed as `src`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ $# -gt 2 ]; then
    echo "usage: scripts/loc.sh [REV [REV2]]" >&2
    exit 2
fi
for rev in "$@"; do
    [ -z "$rev" ] || git rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
        || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
done

count() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }'
}

# The per-crate table and its total, for revision $1 (the working tree
# when empty).
table() {
    local rev="$1"
    if [ -n "$rev" ]; then
        files() { git ls-tree -r --name-only "$rev" -- crates src | grep -E '^(crates/[^/]+/)?src/.*\.rs$'; }
        show() { git show "$rev:$1"; }
    else
        files() { find crates/*/src src -name '*.rs' | sort; }
        show() { cat "$1"; }
    fi
    files | while read -r path; do
        case "$path" in
            crates/*) krate="${path#crates/}"; krate="${krate%%/*}" ;;
            *) krate="src" ;;
        esac
        echo "$krate $(show "$path" | count)"
    done | awk '{ lines[$1] += $2 } END { for (k in lines) printf "%-14s %7d\n", k, lines[k] }' \
        | sort | awk '{ print; total += $2 } END { printf "%-14s %7d\n", "total", total }'
}

if [ $# -lt 2 ]; then
    table "${1:-}"
    exit 0
fi

# Two revisions: the first table's rows in its order, then any crate only
# the second has, then the total.
printf "%-14s %7.7s %7.7s %7s\n" crate "$1" "$2" delta
awk 'NR == FNR { a[$1] = $2; if ($1 != "total") order[++n] = $1; next }
     !($1 in a) && $1 != "total" { order[++n] = $1 }
     { b[$1] = $2 }
     END {
         order[++n] = "total"
         for (i = 1; i <= n; i++) {
             k = order[i]
             printf "%-14s %7d %7d %+7d\n", k, a[k], b[k], b[k] - a[k]
         }
     }' <(table "$1") <(table "$2")
