#!/usr/bin/env bash
# Non-test Rust lines of the workspace: for every .rs file under crates/*/src,
# src/ and examples/ (not crates/*/tests or crates/*/benches), the lines
# before its first `#[cfg(test)]` (the whole file when it has none). Per crate
# and in total, as a Markdown table — the number a simplicity PR reports
# before and after, counted as PRs 13 and 15 counted it by hand.
#
#   scripts/nontest_loc.sh [repo root, default: the checkout this script is in]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # files... -> summed non-test lines
    awk 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

echo "| where | non-test lines |"
echo "|---|---:|"
total=0
for dir in crates/*/src/ src/ examples/; do
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    n=$(count "${files[@]}")
    total=$((total + n))
    dir=${dir%/}
    echo "| ${dir%/src} | $n |"
done
echo "| **workspace** | **$total** |"
