#!/usr/bin/env sh
# Perf regression gate: runs the `perf` bench bin against the committed
# baseline results/BENCH.json. It fails when a hot-loop speedup drops below
# the 5x floor or regresses more than 10% relative to the baseline, when
# the multilevel-vs-min_cost head-to-head drops below 10x, regresses more
# than 25% or exceeds the 1.5x cut ceiling, or when any scale-point mapping
# digest or cut differs from the baseline.
#
# The timing comparisons are against *speedup ratios*, not absolute wall
# time, so the gates are machine-independent: reference and optimized paths
# are timed on the same host in the same process. The digest/cut comparison
# is exact — those numbers do not depend on the machine at all.
#
# In gate mode `perf` prints the fresh JSON to stdout and writes nothing
# under results/, so the committed baseline is never rewritten.
set -eu

cd "$(dirname "$0")/.."

baseline="results/BENCH.json"
if [ ! -f "$baseline" ]; then
    echo "error: no committed baseline at $baseline" >&2
    echo "hint: run 'cargo run --release -p acorr-bench --bin perf' and commit the artifact" >&2
    exit 2
fi

echo "==> perf --baseline $baseline"
cargo run --release -p acorr-bench --bin perf -- --baseline "$baseline"

# Companion-manifest audit: every regenerated artifact gets a
# results/manifests/<name>.json stamp (see acorr_bench::write_artifact),
# but artifacts committed before the stamping convention have none.
# Tolerate those and say so, rather than silently skipping them in digest
# comparisons.
echo "==> companion-manifest audit (results/)"
legacy=0
for artifact in results/*; do
    [ -f "$artifact" ] || continue
    name="$(basename "$artifact")"
    [ "$name" = "README.md" ] && continue
    if [ ! -f "results/manifests/$name.json" ]; then
        echo "    note: $name has no companion manifest (legacy, pre-stamping)"
        legacy=$((legacy + 1))
    fi
done
if [ "$legacy" -eq 0 ]; then
    echo "    every artifact is stamped"
else
    echo "    $legacy legacy artifact(s) tolerated; regenerating them stamps a manifest"
fi
