#!/usr/bin/env bash
# Builds fpserved and the benchmark program from source, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <mega-cold|paper-rl|serve-edit> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p fp-cli --bin fpserved 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)"
exec "$target/release/perfbench" --fpserved "$target/release/fpserved" \
    --rev "$rev" --spans-dir "$target/perfbench-spans" "$@"
