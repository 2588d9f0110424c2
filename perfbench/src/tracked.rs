//! `tracked-suite`: one paper application at 64 threads × 8 nodes through
//! the tracked pipeline per op — ground truth (tracking-off and
//! tracking-on twins) → min-cost placement → a fresh engine → 1 warm-up +
//! 10 measured iterations (the paper's Tables 5 and 6).

use crate::trace::{Tracer, OP};
use crate::{closed_loop, set_layer_times, set_timings, timed, Outcome, RunConfig, Setups, JOBS};
use acorr::apps::{by_name, SUITE_NAMES};
use acorr::dsm::{DsmError, IterStats, Program};
use acorr::mem::AccessMatrix;
use acorr::obs::stats_digest;
use acorr::place::{place, Strategy};
use acorr::sim::{DetRng, Mapping};
use acorr::track::{cut_cost, CorrelationMatrix};
use acorr::{HeuristicRow, Workbench};
use std::collections::BTreeMap;

/// Simulated threads.
pub const THREADS: usize = 64;
/// Simulated nodes.
pub const NODES: usize = 8;
/// Measured iterations after the warm-up one.
pub const MEASURED: usize = 10;
/// Warm-up iterations of each ground-truth twin. Mirrors the private
/// constant `Workbench::ground_truth` uses; the tests compare the rebuilt
/// pipeline with the library's to catch a drift.
const TWIN_WARMUP: usize = 2;
/// DSM iterations one app pipeline executes: two twins of warm-up + one,
/// then warm-up + measured. The traced run counts them from the engine's
/// barriers instead; the tests check the two agree.
pub const ITERATIONS_PER_OP: usize = 2 * (TWIN_WARMUP + 1) + 1 + MEASURED;

/// Everything one pipeline op produced.
#[derive(Debug)]
pub struct Pipeline {
    /// The Table 6 row under min-cost.
    pub row: HeuristicRow,
    /// Statistics of the measured iterations.
    pub measured: IterStats,
    /// Statistics of every engine call of the op (the rebuilt path sees
    /// all of them; the library path only the twins' measured iteration).
    pub engine: IterStats,
    /// Simulated tracking overhead of the tracked twin, percent.
    pub slowdown_pct: f64,
    /// Cut of the stretch placement on the ground-truth correlation.
    pub stretch_cut: u64,
    /// Ground-truth access bitmaps (for the cut check).
    pub access: AccessMatrix,
    /// The min-cost mapping.
    pub mapping: Mapping,
}

struct Truth {
    access: AccessMatrix,
    corr: CorrelationMatrix,
    baseline: IterStats,
    tracked: IterStats,
    warmups: IterStats,
}

fn build(app: &str, threads: usize) -> Box<dyn Program> {
    by_name(app, threads).expect("suite names are known")
}

/// One ground-truth twin, rebuilt from public calls: fresh engine under
/// the stretch placement, warm-up, then one tracked or untracked
/// iteration. Returns (warm-up stats, measured stats, access if tracked).
fn twin<P: Program>(
    bench: &Workbench,
    factory: &impl Fn() -> P,
    tracked: bool,
    t: &mut Tracer,
) -> Result<(IterStats, IterStats, Option<AccessMatrix>), DsmError> {
    let program = t.span("apps.build", |_| factory());
    let mapping = Mapping::stretch(&bench.cluster);
    let mut dsm = t.span("dsm.construct", |_| bench.dsm(program, mapping))?;
    let warm = t.span("dsm.iterate", |_| dsm.run_iterations(TWIN_WARMUP))?;
    if tracked {
        let (stats, access) = t.span("dsm.tracked_iter", |_| dsm.run_tracked_iteration())?;
        Ok((warm, stats, Some(access)))
    } else {
        let stats = t.span("dsm.iterate", |_| dsm.run_iterations(1))?;
        Ok((warm, stats, None))
    }
}

/// `Workbench::ground_truth` rebuilt so each engine call gets a span. The
/// twins run one after the other, as the library runs them with one
/// worker.
fn rebuilt_ground_truth<P: Program>(
    bench: &Workbench,
    factory: &impl Fn() -> P,
    t: &mut Tracer,
) -> Result<Truth, DsmError> {
    let off = twin(bench, factory, false, t)?;
    let on = twin(bench, factory, true, t)?;
    let access = on.2.expect("the tracked twin returns access bitmaps");
    let corr = t.span("track.from_access", |_| {
        CorrelationMatrix::from_access(&access)
    });
    Ok(Truth {
        access,
        corr,
        baseline: off.1,
        tracked: on.1,
        warmups: off.0 + on.0,
    })
}

/// One op: the tracked pipeline for the program `factory` builds. With
/// tracing on, the ground truth is rebuilt from public calls so every
/// engine call gets a span; with it off, the op calls
/// `Workbench::ground_truth`.
///
/// # Errors
///
/// Propagates engine errors.
pub fn pipeline<P: Program>(
    bench: &Workbench,
    factory: impl Fn() -> P + Sync,
    t: &mut Tracer,
) -> Result<Pipeline, DsmError> {
    let truth = if t.enabled() {
        rebuilt_ground_truth(bench, &factory, t)?
    } else {
        let g = bench.ground_truth(&factory)?;
        Truth {
            access: g.access,
            corr: g.corr,
            baseline: g.baseline,
            tracked: g.tracked,
            warmups: IterStats::new(),
        }
    };
    // The same RNG stream `Workbench::observed_heuristic_run` places with.
    let mut rng = DetRng::new(bench.seed).fork(0x6E1);
    let mapping = t.span("place.min_cost", |_| {
        place(Strategy::MinCost, &truth.corr, &bench.cluster, &mut rng)
    });
    let cut = t.span("track.cut", |_| cut_cost(&truth.corr, &mapping));
    let stretch_cut = cut_cost(&truth.corr, &Mapping::stretch(&bench.cluster));
    let program = t.span("apps.build", |_| factory());
    let mut dsm = t.span("dsm.construct", |_| bench.dsm(program, mapping.clone()))?;
    let warm = t.span("dsm.iterate", |_| dsm.run_iterations(1))?;
    let measured = t.span("dsm.iterate", |_| dsm.run_iterations(MEASURED))?;
    let off = truth.baseline.elapsed.as_secs_f64();
    let slowdown_pct = if off == 0.0 {
        0.0
    } else {
        (truth.tracked.elapsed.as_secs_f64() / off - 1.0) * 100.0
    };
    let engine = truth.warmups + truth.baseline + truth.tracked + warm + measured;
    Ok(Pipeline {
        row: HeuristicRow {
            app: dsm.program().name().to_owned(),
            strategy: Strategy::MinCost,
            time: measured.elapsed,
            remote_misses: measured.remote_misses,
            total_mbytes: measured.total_mbytes(),
            diff_mbytes: measured.diff_mbytes(),
            cut_cost: cut,
        },
        measured,
        engine,
        slowdown_pct,
        stretch_cut,
        access: truth.access,
        mapping,
    })
}

/// The workbench the workload runs on.
fn workbench(seed: u64) -> Workbench {
    Workbench::new(NODES, THREADS)
        .expect("64 threads on 8 nodes is a valid cluster")
        .with_seed(seed)
        .with_threads(JOBS)
}

/// Output checks of one op: balanced mapping, cut recomputed from the
/// access bitmaps equals the reported cut, and the measured remote misses
/// and stats digest equal those of earlier ops on the same app.
fn check(p: &Pipeline, seen: &mut BTreeMap<String, (u64, String)>) -> Result<(), String> {
    if !p.mapping.is_balanced() {
        return Err("min-cost mapping is unbalanced".into());
    }
    let cut = cut_cost(&CorrelationMatrix::from_access(&p.access), &p.mapping);
    if cut != p.row.cut_cost {
        return Err(format!(
            "recomputed cut {cut} != reported {}",
            p.row.cut_cost
        ));
    }
    let now = (p.row.remote_misses, stats_digest(&p.measured));
    let first = seen.entry(p.row.app.clone()).or_insert_with(|| now.clone());
    if *first != now {
        return Err(format!(
            "misses/digest {now:?} differ from an earlier op's {first:?}"
        ));
    }
    Ok(())
}

struct Loop {
    secs: Vec<f64>,
    pipelines: usize,
    /// DSM iterations, counted as barriers over barriers per measured
    /// iteration.
    iterations: f64,
    cut: u64,
    stretch_cut: u64,
    measured_misses: u64,
    slowdown_pct: f64,
    engine: IterStats,
}

/// Runs suite passes for the loop's seconds. One op is one pass: the ten
/// apps' pipelines in `SUITE_NAMES` order. `between` runs after each pass,
/// outside its time.
fn run_loop(
    bench: &Workbench,
    config: &RunConfig,
    t: &mut Tracer,
    phase: &str,
    out: &mut Outcome,
    seen: &mut BTreeMap<String, (u64, String)>,
    mut between: impl FnMut(),
) -> Loop {
    let mut l = Loop {
        secs: Vec::new(),
        pipelines: 0,
        iterations: 0.0,
        cut: 0,
        stretch_cut: 0,
        measured_misses: 0,
        slowdown_pct: 0.0,
        engine: IterStats::new(),
    };
    l.secs = closed_loop(config.loop_seconds(), |pass| {
        let mut pass_secs = 0.0;
        let mut verdict = Ok(());
        for (k, app) in SUITE_NAMES.into_iter().enumerate() {
            t.set_op((pass * SUITE_NAMES.len() + k) as u64);
            let (result, secs) =
                timed(|| t.span(OP, |t| pipeline(bench, || build(app, THREADS), t)));
            pass_secs += secs;
            let checked = result.map_err(|e| e.to_string()).and_then(|p| {
                out.notes.push(format!(
                    "{phase} op {pass} {app} {:.3} ms remote_misses={} cut={} stats={}",
                    secs * 1e3,
                    p.row.remote_misses,
                    p.row.cut_cost,
                    stats_digest(&p.measured)
                ));
                check(&p, seen)?;
                l.pipelines += 1;
                l.iterations += (p.engine.barriers * MEASURED as u64) as f64
                    / p.measured.barriers.max(1) as f64;
                l.cut += p.row.cut_cost;
                l.stretch_cut += p.stretch_cut;
                l.measured_misses += p.row.remote_misses;
                l.slowdown_pct += p.slowdown_pct;
                l.engine += p.engine;
                Ok(())
            });
            verdict = verdict.and(checked.map_err(|why| format!("{app}: {why}")));
        }
        out.notes.push(format!(
            "{phase} op {pass} suite pass {:.3} ms",
            pass_secs * 1e3
        ));
        out.op(&format!("{phase} op {pass}"), verdict);
        between();
        pass_secs
    });
    l
}

/// Set-up: the workbench plus one engine per suite app (program
/// construction and page allocation).
pub(crate) fn setup(seed: u64) -> Workbench {
    let bench = workbench(seed);
    for app in SUITE_NAMES {
        let dsm = bench
            .dsm(build(app, THREADS), Mapping::stretch(&bench.cluster))
            .expect("suite apps construct at 64x8");
        std::hint::black_box(&dsm);
    }
    bench
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::new("tracked-suite", config.seed);
    let bench = setups.first(|| setup(config.seed));
    let mut seen = BTreeMap::new();
    let untraced = run_loop(
        &bench,
        config,
        &mut Tracer::off(),
        "untraced",
        &mut out,
        &mut seen,
        || setups.repeat(),
    );
    if !config.trace {
        let work = (SUITE_NAMES.len() * ITERATIONS_PER_OP) as f64;
        set_timings(&mut out, &setups, &untraced.secs, work);
        out.set(
            "cut_ratio",
            untraced.cut as f64 / untraced.stretch_cut as f64,
        );
        let pipelines = untraced.pipelines.max(1) as f64;
        out.notes.push(format!(
            "remote misses (measured, min-cost) per suite pass {:.1}, mean tracking slowdown {:.2}%",
            untraced.measured_misses as f64 / pipelines * SUITE_NAMES.len() as f64,
            untraced.slowdown_pct / pipelines
        ));
        return out;
    }
    let mut tracer = Tracer::on();
    // The rebuilt path must agree with the library's: a mismatch is a
    // traced-run divergence, reported apart from the untraced checks.
    let mut traced_seen = BTreeMap::new();
    let traced = run_loop(
        &bench,
        config,
        &mut tracer,
        "traced",
        &mut out,
        &mut traced_seen,
        || (),
    );
    for (app, value) in &traced_seen {
        if seen.get(app) != Some(value) {
            out.warnings.push(format!(
                "traced {app} diverges from the untraced op: {value:?}"
            ));
        }
    }
    // Counts are per app pipeline, the traced op span.
    let n = traced.pipelines.max(1) as f64;
    let e = &traced.engine;
    set_layer_times(
        &mut out,
        &tracer,
        &untraced.secs,
        &traced.secs,
        &[
            "dsm.iterate",
            "dsm.tracked_iter",
            "dsm.construct",
            "apps.build",
        ],
    );
    out.set("dsm.iterations", traced.iterations / n);
    out.set("dsm.remote_misses", e.remote_misses as f64 / n);
    out.set("dsm.tracking_faults", e.tracking_faults as f64 / n);
    out.set("dsm.coherence_faults", e.coherence_faults as f64 / n);
    out.set("dsm.net_mbytes", e.total_mbytes() / n);
    out.set("dsm.retries", e.retries as f64 / n);
    out.set(
        "dsm.measured_remote_misses",
        traced.measured_misses as f64 / n,
    );
    out.set("dsm.slowdown_pct", traced.slowdown_pct / n);
    out.set("mem.twin_faults", e.twin_faults as f64 / n);
    out.set("mem.diffs_created", e.diffs_created as f64 / n);
    out.set("mem.diff_mbytes", e.diff_bytes_created as f64 / 1e6 / n);
    out.spans_csv = Some(tracer.to_csv());
    out
}
