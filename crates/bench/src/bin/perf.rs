//! The perf gate: every timed kernel and every pinned scale output in one
//! run, one artifact (`results/BENCH.json`, schema `acorr-bench/v2`, see
//! EXPERIMENTS.md) and one gate.
//!
//! 1. **Comparisons** — a reference and an optimized path for the same
//!    work, one named row each. Outputs are asserted identical before
//!    either side is timed; the row records both best-of-reps times and
//!    their speedup ratio.
//!    - `chaos`, `explore`: the per-interval dirty-tracking cycle (insert
//!      write spans, size the diff, count fragments, clear) replayed over
//!      the write streams each bin's applications generate, byte-wise (one
//!      `bool` per byte) vs the `u64`-chunked
//!      [`DirtyMask`](acorr::mem::DirtyMask). Gated: [`HOT_GATE`].
//!    - `refine_kl_{64,128,256}`: [`refine_kl_reference`] (direct
//!      recompute, O(n³) per pass) vs [`refine_kl`] (D-value cache, O(n²)).
//!      Ungated.
//!    - `cutcost_{FFT7,SOR,Water}`: a Table-2-shaped `cutcost_study` on 1
//!      vs all host workers. Ungated: bounded by the host core count.
//!    - `head_to_head`: direct [`min_cost`] (dense) vs [`multilevel_place`]
//!      (sparse) at 2048×16. The two are different heuristics, so instead
//!      of identical outputs the multilevel cut must stay within
//!      [`QUALITY_CEILING`]× of the direct one. Gated: [`HEAD_GATE`].
//! 2. **Scale points** — 10k×64, 100k×256 and 1M×1000 (synthetic
//!    power-law affinity, ~8 edges per thread, seed 42). The mapping
//!    digest and cut are machine-independent and compared exactly;
//!    generation and placement milliseconds are recorded, not gated. The
//!    10k point is also placed at each worker count of [`JOBS_MATRIX`] and
//!    every digest must agree.
//! 3. **Wall clock** — one oracle-shadowed chaos cell and one budget-2
//!    exploration end to end. Recorded, not gated.
//!
//! Timing gates compare speedup ratios of two paths timed on the same host
//! in the same process, so they hold across machines.
//!
//! Usage: `perf [--baseline FILE]`. Without a baseline it writes
//! `results/BENCH.json` and its manifest. With one it prints the fresh JSON
//! to stdout, writes nothing, and exits 1 on any gate failure —
//! `scripts/check_perf.sh` runs this mode against the committed file.

use acorr::apps;
use acorr::dsm::{Op, Program};
use acorr::experiment::{mapping_digest, scale_placement_study, ScalePlacement, Workbench};
use acorr::explore::ExploreOptions;
use acorr::mem::{span_pages, DirtyMask, PAGE_SIZE};
use acorr::obs::git_describe;
use acorr::obs::json::{self, Obj, Value};
use acorr::place::{
    min_cost, multilevel_place, power_law_affinity, refine_kl, refine_kl_reference,
};
use acorr::sched::ExploreMode;
use acorr::sim::{available_threads, ClusterConfig, DetRng, FaultPlan, Mapping};
use acorr::track::{cut_cost, CorrelationMatrix};
use acorr_bench::{best_of, time_fn, try_write_artifact, Table};

/// Cluster shape of the hot-loop and wall-clock rows.
const NODES: usize = 8;
const THREADS: usize = 64;
/// Measured reps of the hot-loop replays.
const HOT_REPS: usize = 5;
/// Measured reps of the KL, cutcost, head-to-head and sub-1M scale rows.
const REPS: usize = 3;
/// Measured reps of the end-to-end wall-clock rows.
const WALL_REPS: usize = 2;
/// `cutcost_study` samples per application.
const SAMPLES: usize = 24;

/// Gated row names. The committed baseline must hold each of them.
const CHAOS: &str = "chaos";
const EXPLORE: &str = "explore";
const HEAD_TO_HEAD: &str = "head_to_head";

/// Hot loops: at least 5x, and within 10% of the baseline's ratio.
const HOT_GATE: Gate = Gate {
    floor: 5.0,
    slack: 0.10,
};
/// Head-to-head: at least 10x (measured ~100x on the reference machine),
/// and within 25% of the baseline's ratio (a sub-second measurement is
/// noisier than the hot loops).
const HEAD_GATE: Gate = Gate {
    floor: 10.0,
    slack: 0.25,
};
/// Multilevel cut may exceed the direct `min_cost` cut by at most this
/// factor on the head-to-head instance. Above the `kl_threshold` the
/// multilevel path trades full-resolution KL for coarse structure; measured
/// ~1.43x at 2048x16.
const QUALITY_CEILING: f64 = 1.5;

/// The tracked scale points: (threads, nodes).
const SCALE_POINTS: [(usize, usize); 3] = [(10_000, 64), (100_000, 256), (1_000_000, 1000)];
/// Affinity edges per thread fed to the synthetic generator.
const DEGREE: usize = 8;
/// Generator seed (changing it changes every pinned digest).
const SEED: u64 = 42;
/// Worker counts the invariance check places the 10k point under.
const JOBS_MATRIX: [usize; 3] = [1, 4, 8];
/// Head-to-head instance: the largest size `min_cost` handles comfortably.
const HEAD_THREADS: usize = 2048;
const HEAD_NODES: usize = 16;

/// A timing gate on a comparison's speedup ratio.
#[derive(Debug, Clone, Copy)]
struct Gate {
    /// The fresh speedup must be at least this.
    floor: f64,
    /// The fresh speedup may fall at most this fraction below the
    /// baseline's.
    slack: f64,
}

/// One reference-vs-optimized row.
struct Comparison {
    name: String,
    reference_ms: f64,
    optimized_ms: f64,
    gate: Option<Gate>,
    /// `(reference, optimized)` cut costs when the two paths are different
    /// heuristics; their ratio is held under [`QUALITY_CEILING`].
    cuts: Option<(u64, u64)>,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.optimized_ms.max(1e-9)
    }

    /// Optimized cut over reference cut.
    fn quality(&self) -> Option<f64> {
        self.cuts
            .map(|(reference, optimized)| optimized as f64 / (reference as f64).max(1.0))
    }
}

/// One measured scale point (best-of-reps timings, invariant outputs).
struct ScaleRow {
    label: String,
    row: ScalePlacement,
}

/// One step of a bin's dirty-tracking replay: a write span landing on a
/// page, or a barrier closing the interval (size diffs, clear masks).
#[derive(Clone, Copy)]
enum Step {
    Span { page: u32, start: u16, end: u16 },
    Flush,
}

/// Extracts the dirty-tracking work an application generates: every write
/// span of every thread's script, page-split, with a flush per barrier.
/// `iters` repeats the script (LU's phases differ per iteration).
fn steps_of(program: &dyn Program, iters: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    for iter in 0..iters {
        for t in 0..program.num_threads() {
            for op in program.script(t, iter) {
                match op {
                    Op::Write { addr, len } => {
                        for span in span_pages(addr, len) {
                            steps.push(Step::Span {
                                page: span.page.0,
                                start: span.start,
                                end: span.end,
                            });
                        }
                    }
                    Op::Barrier => steps.push(Step::Flush),
                    _ => {}
                }
            }
        }
        steps.push(Step::Flush);
    }
    steps
}

/// Replays the steps through the byte-wise reference representation: one
/// `bool` per byte, inserts and interval scans all step byte-at-a-time —
/// the shape of the original twin/diff comparison. Returns a checksum over
/// every interval's (dirty length, fragment count).
fn replay_bytewise(steps: &[Step], num_pages: usize) -> u64 {
    let mut masks: Vec<Vec<bool>> = vec![vec![false; PAGE_SIZE]; num_pages];
    let mut touched: Vec<u32> = Vec::new();
    let mut sum: u64 = 0;
    for step in steps {
        match *step {
            Step::Span { page, start, end } => {
                let mask = &mut masks[page as usize];
                if !mask.iter().any(|&b| b) {
                    touched.push(page);
                }
                for b in &mut mask[start as usize..end as usize] {
                    *b = true;
                }
            }
            Step::Flush => {
                for &page in &touched {
                    let mask = &mut masks[page as usize];
                    let mut len = 0u64;
                    let mut fragments = 0u64;
                    let mut prev = false;
                    for &b in mask.iter() {
                        len += b as u64;
                        fragments += (b && !prev) as u64;
                        prev = b;
                    }
                    sum = sum
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(len)
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(fragments);
                    mask.fill(false);
                }
                touched.clear();
            }
        }
    }
    sum
}

/// Replays the same steps through the word-chunked [`DirtyMask`]: inserts
/// are masked `u64` ORs, interval scans are popcounts and rising-edge
/// counts over 64 words, clears are word fills.
fn replay_mask(steps: &[Step], num_pages: usize) -> u64 {
    let mut masks: Vec<DirtyMask> = vec![DirtyMask::new(); num_pages];
    let mut touched: Vec<u32> = Vec::new();
    let mut sum: u64 = 0;
    for step in steps {
        match *step {
            Step::Span { page, start, end } => {
                let mask = &mut masks[page as usize];
                if mask.is_empty() {
                    touched.push(page);
                }
                mask.insert(start, end);
            }
            Step::Flush => {
                for &page in &touched {
                    let mask = &mut masks[page as usize];
                    sum = sum
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(mask.total_len())
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(mask.fragment_count() as u64);
                    mask.clear();
                }
                touched.clear();
            }
        }
    }
    sum
}

/// Times `reference` against `optimized` after the caller has asserted
/// they agree.
fn compare(
    name: String,
    reps: usize,
    gate: Option<Gate>,
    reference: impl FnMut(),
    optimized: impl FnMut(),
) -> Comparison {
    Comparison {
        name,
        reference_ms: best_of(reps, reference).as_secs_f64() * 1e3,
        optimized_ms: best_of(reps, optimized).as_secs_f64() * 1e3,
        gate,
        cuts: None,
    }
}

/// The dirty-tracking replay of one bin's write streams.
fn hot_loop(name: &str, step_sets: &[(Vec<Step>, usize)]) -> Comparison {
    for (steps, num_pages) in step_sets {
        assert_eq!(
            replay_bytewise(steps, *num_pages),
            replay_mask(steps, *num_pages),
            "{name}: representations disagree on the diff stream"
        );
    }
    compare(
        name.to_string(),
        HOT_REPS,
        Some(HOT_GATE),
        || {
            for (steps, num_pages) in step_sets {
                std::hint::black_box(replay_bytewise(steps, *num_pages));
            }
        },
        || {
            for (steps, num_pages) in step_sets {
                std::hint::black_box(replay_mask(steps, *num_pages));
            }
        },
    )
}

/// Reference vs incremental KL refinement on a seeded random matrix.
fn kl_row(n: usize) -> Comparison {
    let mut rng = DetRng::new(0xBE7);
    let mut corr = CorrelationMatrix::zeros(n);
    for a in 0..n {
        for b in (a + 1)..n {
            corr.set(a, b, rng.next_below(32));
        }
    }
    let cluster = ClusterConfig::new(NODES, n).expect("8-node cluster");
    let start = Mapping::random_balanced(&cluster, &mut rng);
    let slow = refine_kl_reference(&corr, start.clone());
    let fast = refine_kl(&corr, start.clone());
    assert!(
        slow == fast && cut_cost(&corr, &slow) == cut_cost(&corr, &fast),
        "refine_kl at {n} threads diverged from the reference"
    );
    compare(
        format!("refine_kl_{n}"),
        REPS,
        None,
        || {
            refine_kl_reference(&corr, start.clone());
        },
        || {
            refine_kl(&corr, start.clone());
        },
    )
}

/// A Table-2-shaped `cutcost_study` on 1 vs `workers` host threads.
fn cutcost_row(app: &str, workers: usize) -> Comparison {
    let study = |jobs: usize| {
        Workbench::new(NODES, THREADS)
            .expect("8x64 cluster")
            .with_threads(jobs)
            .cutcost_study(
                || apps::by_name(app, THREADS).expect("known app"),
                SAMPLES,
                1,
            )
            .expect("cutcost study")
    };
    let (seq, par) = (study(1), study(workers));
    assert!(
        seq.to_csv() == par.to_csv() && seq.fit == par.fit,
        "cutcost_study of {app} differs between 1 and {workers} workers"
    );
    compare(
        format!("cutcost_{app}"),
        REPS,
        None,
        || {
            study(1);
        },
        || {
            study(workers);
        },
    )
}

/// Direct `min_cost` (dense) vs `multilevel_place` (sparse) on the same
/// synthetic store.
fn head_to_head() -> Comparison {
    let corr = power_law_affinity(HEAD_THREADS, DEGREE, SEED, 0);
    let dense = corr.to_dense();
    let cluster = ClusterConfig::new(HEAD_NODES, HEAD_THREADS).expect("valid topology");
    let mut row = Comparison {
        name: HEAD_TO_HEAD.to_string(),
        reference_ms: f64::INFINITY,
        optimized_ms: f64::INFINITY,
        gate: Some(HEAD_GATE),
        cuts: None,
    };
    for _ in 0..REPS {
        let (multilevel, t) = time_fn(|| multilevel_place(&corr, &cluster));
        row.optimized_ms = row.optimized_ms.min(t.as_secs_f64() * 1e3);
        let (direct, t) = time_fn(|| min_cost(&dense, &cluster));
        row.reference_ms = row.reference_ms.min(t.as_secs_f64() * 1e3);
        row.cuts = Some((cut_cost(&corr, &direct), cut_cost(&corr, &multilevel)));
    }
    row
}

/// Measures one scale point `reps` times, keeping the fastest timings and
/// asserting the outputs never vary across reps.
fn measure_scale(threads: usize, nodes: usize, reps: usize) -> ScaleRow {
    let mut best: Option<ScalePlacement> = None;
    for _ in 0..reps {
        let row = scale_placement_study(threads, nodes, DEGREE, SEED, 0).expect("valid topology");
        best = Some(match best {
            None => row,
            Some(prev) => {
                assert_eq!(prev.digest, row.digest, "reps must be bit-identical");
                assert_eq!(prev.cut, row.cut, "reps must be bit-identical");
                ScalePlacement {
                    gen_ms: prev.gen_ms.min(row.gen_ms),
                    place_ms: prev.place_ms.min(row.place_ms),
                    ..row
                }
            }
        });
    }
    ScaleRow {
        label: format!("{threads}x{nodes}"),
        row: best.expect("reps >= 1"),
    }
}

/// Rounds for the artifact: enough digits to read, few enough to diff.
fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

fn render_json(
    git: &str,
    comparisons: &[Comparison],
    wall: &[(&str, f64)],
    scales: &[ScaleRow],
) -> String {
    let mut rows = Obj::new();
    for c in comparisons {
        let mut row = Obj::new();
        row.f64("reference_ms", round(c.reference_ms, 3))
            .f64("optimized_ms", round(c.optimized_ms, 3))
            .f64("speedup", round(c.speedup(), 2));
        if let (Some((reference, optimized)), Some(quality)) = (c.cuts, c.quality()) {
            row.u64("reference_cut", reference)
                .u64("optimized_cut", optimized)
                .f64("quality", round(quality, 4));
        }
        rows.raw(&c.name, &row.finish());
    }
    let mut wall_ms = Obj::new();
    for &(name, ms) in wall {
        wall_ms.f64(name, round(ms, 3));
    }
    let mut scale = Obj::new();
    for s in scales {
        let mut row = Obj::new();
        row.u64("edges", s.row.edges as u64)
            .f64("gen_ms", round(s.row.gen_ms, 1))
            .f64("place_ms", round(s.row.place_ms, 1))
            .u64("cut", s.row.cut)
            .u64("stretch_cut", s.row.stretch_cut)
            .str("digest", &s.row.digest);
        scale.raw(&s.label, &row.finish());
    }
    let mut out = Obj::new();
    out.str("schema", "acorr-bench/v2")
        .str("bin", "perf")
        .str("git", git)
        .u64("host_cores", available_threads() as u64)
        .raw("comparisons", &rows.finish())
        .raw("wall_ms", &wall_ms.finish())
        .raw("scale", &scale.finish());
    out.finish() + "\n"
}

/// `baseline.<section>.<row>.<field>` read through `read`, or the gate
/// failure naming the field. Scoped by structure: a row without the field
/// never borrows a later row's value.
fn lookup<'a, T>(
    baseline: &'a Value,
    section: &str,
    row: &str,
    field: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    baseline
        .get(section)
        .and_then(|s| s.get(row))
        .and_then(|r| r.get(field))
        .and_then(read)
        .ok_or_else(|| format!("{row}: baseline has no {field}"))
}

/// Compares fresh measurements against a parsed baseline. Returns the
/// failures.
fn gate(baseline: &Value, comparisons: &[Comparison], scales: &[ScaleRow]) -> Vec<String> {
    let mut failures = Vec::new();
    for c in comparisons {
        let Some(Gate { floor, slack }) = c.gate else {
            continue;
        };
        let fresh = c.speedup();
        if fresh < floor {
            failures.push(format!(
                "{}: speedup {fresh:.2}x below the {floor:.0}x floor",
                c.name
            ));
        }
        if let Some(quality) = c.quality().filter(|&q| q > QUALITY_CEILING) {
            failures.push(format!(
                "{}: optimized cut is {quality:.3}x the reference cut \
                 (ceiling {QUALITY_CEILING:.2}x)",
                c.name
            ));
        }
        match lookup(baseline, "comparisons", &c.name, "speedup", Value::as_f64) {
            Ok(base) if fresh < base * (1.0 - slack) => failures.push(format!(
                "{}: speedup {fresh:.2}x regressed more than {:.0}% vs the \
                 baseline's {base:.2}x (floor {:.2}x)",
                c.name,
                slack * 100.0,
                base * (1.0 - slack)
            )),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    for s in scales {
        match lookup(baseline, "scale", &s.label, "digest", Value::as_str) {
            Ok(base) if base == s.row.digest => {}
            Ok(base) => failures.push(format!(
                "{}: mapping digest {} diverged from the baseline's {base} \
                 (behaviour change in generator, store or partitioner)",
                s.label, s.row.digest
            )),
            Err(e) => failures.push(e),
        }
        match lookup(baseline, "scale", &s.label, "cut", Value::as_u64) {
            Ok(base) if base == s.row.cut => {}
            Ok(base) => failures.push(format!(
                "{}: cut {} diverged from the baseline's {base}",
                s.label, s.row.cut
            )),
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// The path of `perf --baseline FILE`; no arguments means no baseline.
/// Anything else prints the usage and exits 2.
fn baseline_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, file] if flag == "--baseline" => Some(file.clone()),
        _ => {
            eprintln!("usage: perf [--baseline FILE]");
            std::process::exit(2);
        }
    }
}

/// Reads and parses the baseline, exiting 2 when it is unreadable or not
/// JSON. Called after measuring, so the timed loops start from the same
/// heap state with and without `--baseline`.
fn read_baseline(path: &str) -> Value {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| acorr::dsm::DsmError::io(path, &e).to_string())
        .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")));
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let baseline_path = baseline_arg();
    println!(
        "perf: kernel comparisons and scale points (hot loops best of {HOT_REPS}, \
         others best of {REPS}, 1M point once)\n"
    );

    // The gated hot loops run first, in the same process state with and
    // without `--baseline`, each before its bin's wall row.
    //
    // Chaos bin: every suite application's write streams (the diff churn an
    // oracle-shadowed chaos cell drives); its wall row is one
    // fault-injected conformance run end to end.
    let chaos_steps: Vec<(Vec<Step>, usize)> = apps::SUITE_NAMES
        .iter()
        .map(|&name| {
            let program = apps::by_name(name, THREADS).expect("known app");
            let num_pages = acorr::mem::pages_for(program.shared_bytes()) as usize;
            (steps_of(program.as_ref(), 2), num_pages)
        })
        .collect();
    let chaos = hot_loop(CHAOS, &chaos_steps);
    let chaos_plan = FaultPlan::parse("moderate,seed=7").expect("preset parses");
    let chaos_wall = best_of(WALL_REPS, || {
        let run = Workbench::new(NODES, THREADS)
            .expect("cluster")
            .with_faults(chaos_plan.clone())
            .conformance_run(apps::by_name("Water", THREADS).expect("known app"), 1)
            .expect("oracle-clean run");
        assert_eq!(run.report.violations, 0);
    });

    // Explore bin: the write streams of the canonical exploration target;
    // its wall row is a budget-2 exploration (default schedule + one
    // steered) with all checkers attached.
    let sor = apps::by_name("SOR", THREADS).expect("known app");
    let explore_steps = vec![(
        steps_of(sor.as_ref(), 4),
        acorr::mem::pages_for(sor.shared_bytes()) as usize,
    )];
    let explore = hot_loop(EXPLORE, &explore_steps);
    let explore_options = ExploreOptions {
        budget: 2,
        iterations: 1,
        mode: ExploreMode::Random { seed: 5 },
        ..ExploreOptions::default()
    };
    let explore_wall = best_of(WALL_REPS, || {
        let report = Workbench::new(NODES, THREADS)
            .expect("cluster")
            .explore_run(
                || apps::by_name("SOR", THREADS).expect("known app"),
                &explore_options,
            )
            .expect("exploration runs");
        assert!(report.failure.is_none(), "SOR explores clean");
    });

    let workers = available_threads();
    let mut comparisons = vec![chaos, explore];
    comparisons.extend([64, 128, 256].map(kl_row));
    comparisons.extend(["FFT7", "SOR", "Water"].map(|app| cutcost_row(app, workers)));
    comparisons.push(head_to_head());
    let wall = [
        (CHAOS, chaos_wall.as_secs_f64() * 1e3),
        (EXPLORE, explore_wall.as_secs_f64() * 1e3),
    ];

    let scales: Vec<ScaleRow> = SCALE_POINTS
        .iter()
        .map(|&(threads, nodes)| {
            let reps = if threads >= 1_000_000 { 1 } else { REPS };
            measure_scale(threads, nodes, reps)
        })
        .collect();
    let (threads, nodes) = SCALE_POINTS[0];
    let cluster = ClusterConfig::new(nodes, threads).expect("valid topology");
    let invariance_digests = JOBS_MATRIX.map(|jobs| {
        let corr = power_law_affinity(threads, DEGREE, SEED, jobs);
        mapping_digest(&multilevel_place(&corr, &cluster))
    });
    let jobs_invariant = invariance_digests
        .iter()
        .all(|d| *d == scales[0].row.digest);

    println!("{workers} host core(s); cutcost rows compare 1 vs {workers} workers\n");
    let mut table = Table::new(&["Row", "Reference (ms)", "Optimized (ms)", "Speedup", "Gate"]);
    for c in &comparisons {
        let gate = c.gate.map_or("-".to_string(), |g| {
            format!(">={:.0}x, -{:.0}%", g.floor, g.slack * 100.0)
        });
        table.row(&[
            c.name.clone(),
            format!("{:.3}", c.reference_ms),
            format!("{:.3}", c.optimized_ms),
            format!("{:.2}x", c.speedup()),
            gate,
        ]);
    }
    println!("{}", table.render());
    let mut table = Table::new(&[
        "Scale",
        "Edges",
        "Gen (ms)",
        "Place (ms)",
        "Cut",
        "Stretch cut",
        "Digest",
    ]);
    for s in &scales {
        table.row(&[
            s.label.clone(),
            s.row.edges.to_string(),
            format!("{:.1}", s.row.gen_ms),
            format!("{:.1}", s.row.place_ms),
            s.row.cut.to_string(),
            s.row.stretch_cut.to_string(),
            s.row.digest.clone(),
        ]);
    }
    println!("{}", table.render());
    for (name, ms) in wall {
        println!("wall clock {name}: {ms:.1} ms");
    }
    println!(
        "jobs invariance at {}: {} ({JOBS_MATRIX:?})\n",
        scales[0].label,
        if jobs_invariant { "OK" } else { "FAILED" },
    );

    let json = render_json(&git_describe(), &comparisons, &wall, &scales);
    if baseline_path.is_some() {
        print!("{json}");
    } else if let Err(e) = try_write_artifact("BENCH.json", &json) {
        eprintln!("warning: could not persist the artifact: {e}");
        print!("{json}");
    }

    if !jobs_invariant {
        eprintln!(
            "perf gate FAILED: jobs matrix {JOBS_MATRIX:?} produced digests \
             {invariance_digests:?}, expected {}",
            scales[0].row.digest
        );
        std::process::exit(1);
    }

    let Some(path) = baseline_path else {
        return;
    };
    let baseline = read_baseline(&path);
    let failures = gate(&baseline, &comparisons, &scales);
    if failures.is_empty() {
        println!(
            "perf gate OK: every gated speedup holds its floor and slack, the \
             head-to-head cut is within {QUALITY_CEILING:.2}x, and every digest and \
             cut matches ({path})"
        );
    } else {
        for f in &failures {
            eprintln!("perf gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(page: u32, start: u16, end: u16) -> Step {
        Step::Span { page, start, end }
    }

    fn row(name: &str, reference_ms: f64, optimized_ms: f64, gate: Option<Gate>) -> Comparison {
        Comparison {
            name: name.to_string(),
            reference_ms,
            optimized_ms,
            gate,
            cuts: None,
        }
    }

    fn head(direct_ms: f64, multilevel_ms: f64, direct_cut: u64, ml_cut: u64) -> Comparison {
        Comparison {
            cuts: Some((direct_cut, ml_cut)),
            ..row(HEAD_TO_HEAD, direct_ms, multilevel_ms, Some(HEAD_GATE))
        }
    }

    fn scale_row(label: &str, cut: u64, digest: &str) -> ScaleRow {
        ScaleRow {
            label: label.to_string(),
            row: ScalePlacement {
                threads: 10,
                nodes: 2,
                degree: DEGREE,
                seed: SEED,
                edges: 30,
                gen_ms: 1.0,
                place_ms: 2.0,
                cut,
                stretch_cut: cut * 3,
                digest: digest.to_string(),
            },
        }
    }

    fn render(comparisons: &[Comparison], scales: &[ScaleRow]) -> Value {
        json::parse(&render_json("base", comparisons, &[], scales)).expect("valid JSON")
    }

    fn num(v: &Value, section: &str, row: &str, field: &str) -> Option<f64> {
        lookup(v, section, row, field, Value::as_f64).ok()
    }

    #[test]
    fn replays_agree_on_adversarial_streams() {
        let steps = vec![
            span(0, 0, 1),
            span(0, 4095, 4096),
            span(1, 63, 65),
            span(1, 100, 100),
            Step::Flush,
            span(0, 0, 4096),
            Step::Flush,
            span(2, 4090, 4096),
            span(2, 4000, 4090),
            Step::Flush,
        ];
        assert_eq!(replay_bytewise(&steps, 3), replay_mask(&steps, 3));
    }

    #[test]
    fn replays_agree_on_a_real_suite_app() {
        let program = apps::by_name("Water", 8).expect("known app");
        let pages = acorr::mem::pages_for(program.shared_bytes()) as usize;
        let steps = steps_of(program.as_ref(), 2);
        assert!(!steps.is_empty());
        assert_eq!(replay_bytewise(&steps, pages), replay_mask(&steps, pages));
    }

    #[test]
    fn hot_loop_rows_round_trip_through_json() {
        let comparisons = [
            row(CHAOS, 100.0, 4.0, Some(HOT_GATE)),
            row(EXPLORE, 80.0, 10.0, Some(HOT_GATE)),
        ];
        let text = render_json("deadbeef", &comparisons, &[(CHAOS, 1234.5)], &[]);
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("acorr-bench/v2")
        );
        assert_eq!(v.get("git").and_then(Value::as_str), Some("deadbeef"));
        assert_eq!(num(&v, "comparisons", CHAOS, "speedup"), Some(25.0));
        assert_eq!(num(&v, "comparisons", EXPLORE, "speedup"), Some(8.0));
        assert_eq!(
            v.get("wall_ms")
                .and_then(|w| w.get(CHAOS))
                .and_then(Value::as_f64),
            Some(1234.5)
        );
        assert_eq!(num(&v, "comparisons", "absent", "speedup"), None);
    }

    #[test]
    fn scale_rows_round_trip_through_json() {
        let scales = [
            scale_row("10000x64", 525_364, "fnv1a:c8b9583da5ea3075"),
            scale_row("100000x256", 4_234_012, "fnv1a:e1285098d3c4cfcd"),
        ];
        let v = render(&[head(45.0, 10.0, 100, 110)], &scales);
        assert_eq!(
            lookup(&v, "scale", "10000x64", "digest", Value::as_str),
            Ok("fnv1a:c8b9583da5ea3075")
        );
        assert_eq!(
            lookup(&v, "scale", "100000x256", "cut", Value::as_u64),
            Ok(4_234_012)
        );
        assert_eq!(num(&v, "comparisons", HEAD_TO_HEAD, "speedup"), Some(4.5));
        assert_eq!(num(&v, "comparisons", HEAD_TO_HEAD, "quality"), Some(1.1));
        assert!(lookup(&v, "scale", "absent", "digest", Value::as_str).is_err());
        assert!(lookup(&v, "scale", "10000x64", "absent", Value::as_str).is_err());
    }

    #[test]
    fn gate_enforces_floor_and_regression_slack() {
        let ok = row(CHAOS, 100.0, 10.0, Some(HOT_GATE)); // 10x
        let baseline = render(&[row(CHAOS, 100.0, 9.5, Some(HOT_GATE))], &[]); // ~10.5x
        assert!(
            gate(&baseline, std::slice::from_ref(&ok), &[]).is_empty(),
            "within 10% of baseline"
        );

        let slow = row(CHAOS, 100.0, 25.0, Some(HOT_GATE)); // 4x: below floor AND regressed
        let failures = gate(&baseline, &[slow], &[]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("floor"));
        assert!(failures[1].contains("regressed"));

        // Ungated rows are never compared.
        assert!(gate(&baseline, &[row("refine_kl_64", 1.0, 1.0, None)], &[]).is_empty());

        let missing = gate(&json::parse("{}").unwrap(), std::slice::from_ref(&ok), &[]);
        assert_eq!(missing, ["chaos: baseline has no speedup"]);

        // The chaos row lacks its speedup and the explore row has one: the
        // chaos check must not borrow explore's value.
        let partial = json::parse(
            r#"{"comparisons":{"chaos":{"reference_ms":100},"explore":{"speedup":10}}}"#,
        )
        .unwrap();
        let explore = row(EXPLORE, 100.0, 10.0, Some(HOT_GATE));
        let failures = gate(&partial, &[ok, explore], &[]);
        assert_eq!(failures, ["chaos: baseline has no speedup"]);
    }

    #[test]
    fn gate_pins_digests_and_cuts_exactly() {
        let scales = [scale_row("10000x64", 100, "fnv1a:aaaa")];
        let h = head(45.0, 1.0, 100, 100);
        let baseline = render(std::slice::from_ref(&h), &scales);
        assert!(gate(&baseline, std::slice::from_ref(&h), &scales).is_empty());

        let moved = [scale_row("10000x64", 100, "fnv1a:bbbb")];
        let failures = gate(&baseline, std::slice::from_ref(&h), &moved);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("digest"));

        let worse = [scale_row("10000x64", 101, "fnv1a:aaaa")];
        let failures = gate(&baseline, std::slice::from_ref(&h), &worse);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("cut 101"));
    }

    #[test]
    fn gate_enforces_speedup_floor_quality_ceiling_and_regression() {
        let scales = [scale_row("10000x64", 100, "fnv1a:aaaa")];
        let good = head(45.0, 1.0, 100, 100); // 45x
        let baseline = render(std::slice::from_ref(&good), &scales);

        // Below the absolute floor AND regressed vs baseline 45x.
        let slow = head(45.0, 9.0, 100, 100); // 5x
        let failures = gate(&baseline, &[slow], &scales);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("floor"));
        assert!(failures[1].contains("regressed"));

        // Cut quality above the ceiling.
        let sloppy = head(45.0, 1.0, 100, 200); // 2.0x quality
        let failures = gate(&baseline, &[sloppy], &scales);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ceiling"));

        // Baseline without the sections.
        let failures = gate(&json::parse("{}").unwrap(), &[good], &scales);
        assert!(
            failures.iter().any(|f| f.contains("no digest")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("no speedup")),
            "{failures:?}"
        );
    }

    /// The committed baseline holds every gated row this binary produces,
    /// and its 100k point agrees with the digest the scale smokes grep.
    #[test]
    fn committed_baseline_holds_every_gated_row() {
        let text = include_str!("../../../../results/BENCH.json");
        let baseline = json::parse(text).expect("results/BENCH.json parses");
        assert_eq!(
            baseline.get("schema").and_then(Value::as_str),
            Some("acorr-bench/v2")
        );
        for name in [CHAOS, EXPLORE, HEAD_TO_HEAD] {
            assert!(
                num(&baseline, "comparisons", name, "speedup").is_some(),
                "no {name} speedup"
            );
        }
        for (threads, nodes) in SCALE_POINTS {
            let label = format!("{threads}x{nodes}");
            for field in ["digest", "cut"] {
                assert!(
                    lookup(&baseline, "scale", &label, field, Some).is_ok(),
                    "no {label} {field}"
                );
            }
        }
        assert_eq!(
            lookup(&baseline, "scale", "100000x256", "digest", Value::as_str),
            Ok("fnv1a:e1285098d3c4cfcd")
        );
    }
}
