#!/usr/bin/env bash
# Product-source lines per crate and in total:
#
#   scripts/loc.sh          the working tree
#   scripts/loc.sh REV      a git revision (any name `git show` takes)
#
# Counted: the `.rs` files under `crates/*/src` and the root `src/`, each
# cut at its first top-level `#[cfg(test)]` (the unit tests below it are
# not product code), without blank lines and `//` comment lines (doc
# comments included). The root package is listed as `src`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
rev="${1:-}"
if [ $# -gt 1 ]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 2
fi

if [ -n "$rev" ]; then
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
        || { echo "loc.sh: unknown revision $rev" >&2; exit 2; }
    files() { git ls-tree -r --name-only "$rev" -- crates src | grep -E '^(crates/[^/]+/)?src/.*\.rs$'; }
    show() { git show "$rev:$1"; }
else
    files() { find crates/*/src src -name '*.rs' | sort; }
    show() { cat "$1"; }
fi

count() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
         { n++ }
         END { print n + 0 }'
}

files | while read -r path; do
    case "$path" in
        crates/*) krate="${path#crates/}"; krate="${krate%%/*}" ;;
        *) krate="src" ;;
    esac
    echo "$krate $(show "$path" | count)"
done | awk '{ lines[$1] += $2 } END { for (k in lines) printf "%-14s %7d\n", k, lines[k] }' \
    | sort | awk '{ print; total += $2 } END { printf "%-14s %7d\n", "total", total }'
