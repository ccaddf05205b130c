#!/usr/bin/env bash
# Tier-1 where there is no crate registry.
#
# The root workspace needs rand, serde, serde_json and proptest from
# crates.io. This script assembles a throwaway copy of the workspace under
# target/offline-ws whose root manifest patches the first three to the
# stand-ins in benchmark/stubs (read in place) and drops proptest together
# with the test files that use it, then runs `cargo test --offline` there.
# The repo's `.cargo/config.toml` redirects crates.io to a `vendor/`
# directory that does not exist; the copy's own config points that source at
# an empty directory instead, so resolution finds only the patched crates.
#
# Not covered: the proptest files, and wlm-bench's own tests and binaries
# (they need `serde_json::json!`, which the stand-in lacks); the wlm-bench
# library still builds as the root package's dev-dependency.
#
# Extra arguments go to `cargo test` (e.g. `-p wlm-cluster ledger`).
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
ws="$repo/target/offline-ws"

mkdir -p "$ws"
# Keep $ws/target and Cargo.lock so a second run is incremental.
rm -rf "$ws/crates" "$ws/src" "$ws/tests" "$ws/Cargo.toml"
cp -a "$repo/crates" "$repo/src" "$repo/tests" "$ws/"

grep -l 'use proptest' "$ws"/tests/*.rs "$ws"/crates/*/tests/*.rs | xargs rm -f
sed -i '/^proptest\b/d' "$ws"/crates/*/Cargo.toml
{
    sed '/^proptest\b/d' "$repo/Cargo.toml"
    cat <<EOF

[patch.crates-io]
rand = { path = "$repo/benchmark/stubs/rand" }
serde = { path = "$repo/benchmark/stubs/serde" }
serde_json = { path = "$repo/benchmark/stubs/serde_json" }
EOF
} >"$ws/Cargo.toml"

mkdir -p "$ws/.cargo" "$ws/no-vendor"
printf '[source.vendored-sources]\ndirectory = "%s/no-vendor"\n' "$ws" >"$ws/.cargo/config.toml"

cd "$ws"
if [ $# -eq 0 ]; then
    set -- --workspace --exclude wlm-bench
fi
exec cargo test --offline --no-fail-fast "$@"
