#!/bin/sh
# Non-test lines of library and binary source, by the rule the CI lint
# steps apply: every line of a file before its first `#[cfg(test)]`.
#
#   scripts/nontest-lines.sh              per-crate totals for crates/*/src + src
#   scripts/nontest-lines.sh FILE...      the total over just those files
set -eu
cd "$(dirname "$0")/.."

count() {
    awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}

if [ $# -gt 0 ]; then
    count "$@"
    exit
fi
total=0
for dir in crates/*/src src; do
    n=$(count $(find "$dir" -name '*.rs'))
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
