//! Offline wall-clock perf harness for the PR's two optimizations:
//!
//! 1. **Parallel experiment driver** — a Table-2-shaped `cutcost_study`
//!    run sequentially (1 worker) versus on the requested worker count,
//!    asserting the outputs are byte-identical before reporting speedup.
//! 2. **Incremental KL refinement** — [`refine_kl`] (D-value cache, O(n²)
//!    per pass) versus [`refine_kl_reference`] (direct recompute, O(n³)
//!    per pass) on seeded random matrices at 64–256 threads, asserting the
//!    refined mappings are bit-identical before reporting speedup.
//!
//! Writes `results/perf_pr1.csv` with one row per measurement. Runs with
//! plain `cargo run --release -p acorr-bench --bin perf`.
//!
//! Usage: `perf [--threads T] [--samples N] [--reps R]` (defaults: all
//! available workers, 24 samples, 3 measured reps).

use acorr::apps;
use acorr::experiment::Workbench;
use acorr::place::{refine_kl, refine_kl_reference};
use acorr::sim::{available_threads, resolve_threads, ClusterConfig, DetRng, Mapping};
use acorr::track::{cut_cost, CorrelationMatrix};
use acorr_bench::{arg_usize, best_of, write_artifact, Table};

fn main() {
    let threads = resolve_threads(arg_usize("--threads", 0));
    let samples = arg_usize("--samples", 24);
    let reps = arg_usize("--reps", 3);
    println!(
        "perf: wall-clock harness ({} host core(s) visible, measuring with \
         {threads} worker thread(s), best of {reps} reps)\n",
        available_threads()
    );

    // Parallel-section speedup is bounded by the host core count; record it
    // so a ~1x result on a 1-core box reads as expected, not as a failure.
    let mut csv = format!(
        "# host_cores={}, workers={threads}, samples={samples}, reps={reps}\n\
         section,case,baseline_ms,optimized_ms,speedup,identical\n",
        available_threads()
    );
    let mut table = Table::new(&[
        "Section",
        "Case",
        "Baseline (ms)",
        "Optimized (ms)",
        "Speedup",
        "Identical",
    ]);

    // --- 1. Sequential vs parallel cutcost_study (Table 2 shape). -------
    for name in ["FFT7", "SOR", "Water"] {
        let study = |jobs: usize| {
            Workbench::new(8, 64)
                .expect("8x64 cluster")
                .with_threads(jobs)
                .cutcost_study(|| apps::by_name(name, 64).expect("known app"), samples, 1)
                .expect("cutcost study")
        };
        let seq = study(1);
        let par = study(threads);
        let identical = seq.to_csv() == par.to_csv() && seq.fit == par.fit;
        let t_seq = best_of(reps, || {
            study(1);
        });
        let t_par = best_of(reps, || {
            study(threads);
        });
        push(
            &mut csv,
            &mut table,
            "cutcost_study",
            &format!("{name} x{samples} (1 vs {threads} workers)"),
            t_seq.as_secs_f64() * 1e3,
            t_par.as_secs_f64() * 1e3,
            identical,
        );
    }

    // --- 2. Reference vs incremental KL refinement. ---------------------
    for n in [64, 128, 256] {
        let mut rng = DetRng::new(0xBE7);
        let mut corr = CorrelationMatrix::zeros(n);
        for a in 0..n {
            for b in (a + 1)..n {
                corr.set(a, b, rng.next_below(32));
            }
        }
        let cluster = ClusterConfig::new(8, n).expect("8-node cluster");
        let start = Mapping::random_balanced(&cluster, &mut rng);
        let slow = refine_kl_reference(&corr, start.clone());
        let fast = refine_kl(&corr, start.clone());
        let identical = slow == fast && cut_cost(&corr, &slow) == cut_cost(&corr, &fast);
        let t_ref = best_of(reps, || {
            refine_kl_reference(&corr, start.clone());
        });
        let t_inc = best_of(reps, || {
            refine_kl(&corr, start.clone());
        });
        push(
            &mut csv,
            &mut table,
            "refine_kl",
            &format!("{n} threads / 8 nodes"),
            t_ref.as_secs_f64() * 1e3,
            t_inc.as_secs_f64() * 1e3,
            identical,
        );
    }

    println!("{}", table.render());
    write_artifact("perf_pr1.csv", &csv);
    println!(
        "(speedup = baseline / optimized; \"identical\" asserts the optimized\n\
         path produced byte-identical results before timing it)"
    );
}

fn push(
    csv: &mut String,
    table: &mut Table,
    section: &str,
    case: &str,
    baseline_ms: f64,
    optimized_ms: f64,
    identical: bool,
) {
    assert!(identical, "{section}/{case}: outputs diverged");
    let speedup = baseline_ms / optimized_ms.max(1e-9);
    csv.push_str(&format!(
        "{section},{case},{baseline_ms:.3},{optimized_ms:.3},{speedup:.2},{identical}\n"
    ));
    table.row(&[
        section.to_string(),
        case.to_string(),
        format!("{baseline_ms:.1}"),
        format!("{optimized_ms:.1}"),
        format!("{speedup:.2}x"),
        identical.to_string(),
    ]);
}
