#!/usr/bin/env bash
# Runs `cargo test <args> -- <filter>...`, but first checks with
# `-- --list` that every filter names at least one test. libtest runs
# whatever matches and passes when nothing does, so a filter left behind
# by a renamed or deleted test would otherwise pass silently.
#
# Usage: .github/scripts/filtered-test.sh <cargo test args> -- <filter>...
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    args+=("$1")
    shift
done
if [ $# -lt 2 ]; then
    echo "usage: $0 <cargo test args> -- <filter>..." >&2
    exit 2
fi
shift
filters=("$@")

# `--list` prints one `<name>: test` line per test.
names=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
for filter in "${filters[@]}"; do
    if ! grep -qF -- "$filter" <<<"$names"; then
        echo "error: filter '$filter' matches no test of: cargo test ${args[*]}" >&2
        exit 1
    fi
done
cargo test "${args[@]}" -- "${filters[@]}"
