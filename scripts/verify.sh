#!/usr/bin/env sh
# The full PR gate, identical to .github/workflows/ci.yml — run before
# pushing. Needs no external dependencies, so it works offline.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> examples build and run"
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    echo "    --example $name"
    cargo run --release --example "$name" -q >/dev/null
done

echo "==> observability smoke (run --obs-dir + analyze + manifest replay)"
obs_dir="$(mktemp -d)"
./target/release/acorr run --app SOR --threads 8 --nodes 2 \
    --iters 2 --faults moderate --obs-dir "$obs_dir"
./target/release/acorr analyze --obs-dir "$obs_dir"
[ -s "$obs_dir/analysis/report.txt" ] || {
    echo "error: analyze wrote no analysis/report.txt" >&2; exit 1; }
sh scripts/check_obs.sh "$obs_dir"
./target/release/acorr report --manifest "$obs_dir/manifest.json"
rm -rf "$obs_dir"

echo "==> model-check smoke (bounded fault x schedule sweep + seeded bug)"
mc_dir="$(mktemp -d)"
# Clean sweep: two apps through the bounded fault x schedule space.
for app in sor water; do
    ./target/release/acorr explore --app "$app" --threads 8 --nodes 2 \
        --mode model-check --budget 6 --decision-log "$mc_dir/$app.log"
    grep -q "^failure_token=none$" "$mc_dir/$app.log"
done
# Teeth: the seeded bug must be found and shrink to the pinned token.
./target/release/acorr explore --app sor --threads 8 --nodes 2 \
    --mode model-check --budget 8 --inject lose-partitioned-invalidations \
    --decision-log "$mc_dir/injected.log"
grep -q "^failure_token=s1!1$" "$mc_dir/injected.log"
rm -rf "$mc_dir"

echo "==> scale smoke (100k-thread multilevel placement, pinned digest)"
# The assignment digest is a pure function of (threads, nodes, degree,
# seed) — machine-independent — so any behaviour drift in the sparse
# store, the synthetic generator or the multilevel partitioner trips this
# grep. The 120 s ceiling is ~200x the reference wall time: it only
# catches catastrophic slowdowns, the `perf` gate tracks the real numbers.
scale_out="$(timeout 120 ./target/release/acorr place --scale 100000x256)"
echo "$scale_out" | grep -q "digest: fnv1a:e1285098d3c4cfcd" || {
    echo "error: 100000x256 placement digest drifted from the pinned value:" >&2
    echo "$scale_out" >&2
    exit 1
}

echo "==> serve smoke (online placement service, pinned decision timeline)"
# The hotspot decision timeline is a pure function of (seed, scenario,
# jobs) — the digest grep trips on any drift in the traffic driver, the
# phase detector, the candidate placement, or the migration gate.
serve_dir="$(mktemp -d)"
serve_out="$(./target/release/acorr serve --scenario hotspot --steps 48 \
    --timeline "$serve_dir/timeline.txt")"
echo "$serve_out" | grep -q "timeline digest: fnv1a:f2e8753835019d00" || {
    echo "error: hotspot decision timeline drifted from the pinned digest:" >&2
    echo "$serve_out" >&2
    echo "--- timeline ---" >&2
    cat "$serve_dir/timeline.txt" >&2
    exit 1
}
rm -rf "$serve_dir"

echo "==> perf regression gate (scripts/check_perf.sh)"
sh scripts/check_perf.sh

echo "==> OK"
