//! `serve-hotspot`: the online placement service on synthetic hotspot
//! traffic, 100,000 threads on 256 nodes, 4 tenants, 48 steps. One op is
//! one `Workbench::serve_traffic` run; every step rebuilds the sparse
//! store from that step's edges, so the store is written, not only read.

use crate::trace::{Tracer, OP};
use crate::{closed_loop, set_layer_times, set_timings, timed, Outcome, RunConfig, Setups, JOBS};
use acorr::obs::{bytes_digest, PhaseDetector};
use acorr::place::{multilevel_place, plan_migration, refine_kl};
use acorr::sim::{Mapping, Scenario, TrafficConfig, TrafficDriver};
use acorr::track::{cut_cost, SparseCorrelation};
use acorr::{ServeDecision, ServeOptions, ServeReport, Workbench};

/// Simulated threads.
pub const THREADS: usize = 100_000;
/// Cluster nodes.
pub const NODES: usize = 256;

/// The service options of the workload: hotspot traffic with the
/// library's defaults (4 tenants, 48 steps, window 2, period 12, greedy
/// policy, default cost model).
pub fn options() -> ServeOptions {
    ServeOptions::new(Scenario::Hotspot)
}

/// The workbench one op serves on.
fn workbench(seed: u64) -> Workbench {
    Workbench::new(NODES, THREADS)
        .expect("100k threads on 256 nodes is a valid cluster")
        .with_seed(seed)
        .with_threads(JOBS)
}

/// The traffic driver `serve_traffic` builds for `bench` and `options`.
fn driver(bench: &Workbench, options: &ServeOptions) -> TrafficDriver {
    TrafficDriver::new(
        TrafficConfig::new(
            bench.cluster.num_threads(),
            options.tenants,
            options.scenario,
            bench.seed,
        )
        .with_period(options.period),
    )
}

/// What the rebuilt serve loop did.
#[derive(Debug)]
pub struct Served {
    /// The decision timeline, in step order.
    pub timeline: Vec<ServeDecision>,
    /// Shifts detected.
    pub shifts: usize,
    /// Re-maps accepted.
    pub accepted: usize,
    /// Re-maps rejected by the gate.
    pub rejected: usize,
    /// Cut summed over steps under the served placement.
    pub served_cut: u64,
    /// Cut summed over steps under the never-re-mapped placement.
    pub static_cut: u64,
    /// The mapping served at the end.
    pub final_mapping: Mapping,
    /// Detector windows closed.
    pub windows: u64,
    /// Traffic edges over all steps.
    pub edges: u64,
    /// Store entries (unordered pairs) over all steps.
    pub store_edges: u64,
    /// Threads moved by every planned candidate, accepted or not.
    pub planned_moves: u64,
}

/// `Workbench::serve_traffic` rebuilt step by step from public calls (no
/// observer), so each call gets a span: one op span per step, with
/// traffic → store build → 2× cut → detect and, on a shift, candidate →
/// plan → 2× cut → gate. Step `k` is op `first_op + k`.
pub fn rebuilt_serve(
    bench: &Workbench,
    options: &ServeOptions,
    t: &mut Tracer,
    first_op: u64,
) -> Served {
    let threads = bench.cluster.num_threads();
    let traffic = driver(bench, options);
    let initial = Mapping::stretch(&bench.cluster);
    let mut current = initial.clone();
    let mut detector = PhaseDetector::<SparseCorrelation>::new(threads, options.window);
    let mut s = Served {
        timeline: Vec::new(),
        shifts: 0,
        accepted: 0,
        rejected: 0,
        served_cut: 0,
        static_cut: 0,
        final_mapping: initial.clone(),
        windows: 0,
        edges: 0,
        store_edges: 0,
        planned_moves: 0,
    };
    for step in 0..options.steps as u64 {
        t.set_op(first_op + step);
        t.span(OP, |t| {
            let edges = t.span("sim.traffic", |_| traffic.step_edges(step, bench.threads));
            s.edges += edges.len() as u64;
            let corr = t.span("track.from_edges", |_| {
                SparseCorrelation::from_edges(threads, edges)
            });
            s.store_edges += corr.edge_count() as u64;
            s.served_cut += t.span("track.cut", |_| cut_cost(&corr, &current));
            s.static_cut += t.span("track.cut", |_| cut_cost(&corr, &initial));
            let Some(mark) = t.span("obs.detect", |_| detector.observe(&corr)) else {
                return;
            };
            s.shifts += 1;
            s.timeline.push(ServeDecision::Shift {
                step,
                window: mark.window,
                delta_ppm: mark.delta_ppm,
            });
            let candidate = if threads <= options.multilevel_above {
                t.span("place.refine_kl", |_| refine_kl(&corr, current.clone()))
            } else {
                t.span("place.multilevel", |_| {
                    multilevel_place(&corr, &bench.cluster)
                })
            };
            let planned = t.span("place.plan", |_| {
                plan_migration(
                    options.policy,
                    &corr,
                    &current,
                    &candidate,
                    options.max_swaps,
                )
            });
            let moves = planned.moves_from(&current);
            s.planned_moves += moves as u64;
            let cut_before = t.span("track.cut", |_| cut_cost(&corr, &current));
            let cut_after = t.span("track.cut", |_| cut_cost(&corr, &planned));
            let gain = cut_before.saturating_sub(cut_after);
            let accepted = moves > 0 && options.cost_model.accepts(gain, moves);
            s.timeline.push(ServeDecision::Remap {
                step,
                accepted,
                moves: moves as u64,
                cut_before,
                cut_after,
                cost: options.cost_model.migration_cost(moves),
            });
            if accepted {
                s.accepted += 1;
                current = planned;
            } else {
                s.rejected += 1;
            }
        });
    }
    s.windows = detector.windows_closed();
    s.final_mapping = current;
    s
}

/// FNV-1a digest of a timeline's text, one decision per line — the same
/// bytes `ServeReport::timeline_digest` hashes.
pub fn timeline_digest(timeline: &[ServeDecision]) -> String {
    let text: String = timeline.iter().map(|d| format!("{d}\n")).collect();
    bytes_digest(text.as_bytes())
}

/// Steps at which the detector fired.
fn fired_steps(timeline: &[ServeDecision]) -> Vec<u64> {
    timeline
        .iter()
        .filter_map(|d| match *d {
            ServeDecision::Shift { step, .. } => Some(step),
            ServeDecision::Remap { .. } => None,
        })
        .collect()
}

/// Whether `fired` falls within one window of the scripted shift `truth`.
fn within_window(truth: u64, fired: u64, window: usize) -> bool {
    fired >= truth && fired - truth < window as u64
}

/// (recall, precision) of detection: scripted shifts detected within one
/// window / scripted shifts, and fired shifts within one window of a
/// scripted one / fired shifts. An empty denominator reads 0.
pub fn detection(truth: &[u64], fired: &[u64], window: usize) -> (f64, f64) {
    let ratio = |hits: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            hits as f64 / of as f64
        }
    };
    let detected = truth
        .iter()
        .filter(|&&s| fired.iter().any(|&f| within_window(s, f, window)))
        .count();
    let matching = fired
        .iter()
        .filter(|&&f| truth.iter().any(|&s| within_window(s, f, window)))
        .count();
    (ratio(detected, truth.len()), ratio(matching, fired.len()))
}

/// What the checks compare across ops.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Summary {
    timeline: String,
    served_cut: u64,
    static_cut: u64,
    mapping: String,
}

/// Output checks: the final mapping is balanced, every shift got a
/// verdict (`accepted + rejected == shifts`), and the timeline digest and
/// cuts equal every earlier op's (the inputs are the same every op).
fn check(report: &ServeReport, first: &mut Option<Summary>) -> Result<(), String> {
    if !report.final_mapping.is_balanced() {
        return Err("final mapping is unbalanced".into());
    }
    if report.accepted + report.rejected != report.shifts {
        return Err(format!(
            "accepted {} + rejected {} != shifts {}",
            report.accepted, report.rejected, report.shifts
        ));
    }
    let now = Summary {
        timeline: report.timeline_digest(),
        served_cut: report.served_cut,
        static_cut: report.static_cut,
        mapping: report.final_mapping_digest(),
    };
    let first = first.get_or_insert_with(|| now.clone());
    if *first != now {
        return Err(format!("{now:?} differs from the first op's {first:?}"));
    }
    Ok(())
}

/// Set-up: the workbench and the scripted shift steps (the ground truth
/// of detection), plus one step's edges and store so the allocator is
/// warm.
pub(crate) fn setup(seed: u64) -> Vec<u64> {
    let options = options();
    let bench = workbench(seed);
    let traffic = driver(&bench, &options);
    let corr = SparseCorrelation::from_edges(THREADS, traffic.step_edges(0, bench.threads));
    std::hint::black_box(corr);
    traffic.shift_steps(options.steps as u64)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let options = options();
    let mut setups = Setups::new("serve-hotspot", config.seed);
    let truth = setups.first(|| setup(config.seed));
    let mut first = None;
    let mut report = None;
    let untraced = closed_loop(config.loop_seconds(), |i| {
        let (r, secs) = timed(|| workbench(config.seed).serve_traffic(&options));
        out.notes.push(format!(
            "untraced op {i} {:.3} ms shifts={} accepted={} rejected={} served_cut={} static_cut={} timeline={}",
            secs * 1e3,
            r.shifts,
            r.accepted,
            r.rejected,
            r.served_cut,
            r.static_cut,
            r.timeline_digest()
        ));
        out.op(&format!("untraced op {i}"), check(&r, &mut first));
        report = Some(r);
        setups.repeat();
        secs
    });
    let report = report.expect("the loop runs at least one op");
    if !config.trace {
        set_timings(&mut out, &setups, &untraced, options.steps as f64);
        out.set(
            "cut_ratio",
            report.served_cut as f64 / report.static_cut as f64,
        );
        let (recall, _) = detection(&truth, &fired_steps(&report.timeline), options.window);
        out.notes.push(format!(
            "detect recall {recall:.3} over {} scripted shifts",
            truth.len()
        ));
        return out;
    }
    let mut tracer = Tracer::on();
    let bench = workbench(config.seed);
    let mut served = None;
    let traced = closed_loop(config.loop_seconds(), |i| {
        let first_op = (i * options.steps) as u64;
        let (s, secs) = timed(|| rebuilt_serve(&bench, &options, &mut tracer, first_op));
        served = Some(s);
        secs
    });
    let s = served.expect("the loop runs at least one op");
    let digest = timeline_digest(&s.timeline);
    if digest != report.timeline_digest() {
        out.warnings.push(format!(
            "rebuilt serve timeline {digest} diverges from serve_traffic's {}",
            report.timeline_digest()
        ));
    }
    set_layer_times(
        &mut out,
        &tracer,
        &untraced,
        &traced,
        &["obs.detect", "track.from_edges", "sim.traffic"],
    );
    let steps = options.steps as f64;
    let (recall, precision) = detection(&truth, &fired_steps(&s.timeline), options.window);
    out.set("obs.windows", s.windows as f64);
    out.set("obs.shifts", s.shifts as f64);
    out.set("obs.detect_recall", recall);
    out.set("obs.shift_precision", precision);
    out.set("place.candidates", s.shifts as f64);
    let accept = if s.shifts == 0 {
        0.0
    } else {
        s.accepted as f64 / s.shifts as f64
    };
    out.set("place.accept_ratio", accept);
    out.set("place.moves", s.planned_moves as f64);
    out.set("sim.edges_per_step", s.edges as f64 / steps);
    out.set("track.store_edges", s.store_edges as f64 / steps);
    // Computed from the entry size, not measured.
    out.set(
        "track.store_mb",
        (2 * s.store_edges as usize * std::mem::size_of::<(u32, u64)>()) as f64 / 1e6 / steps,
    );
    out.spans_csv = Some(tracer.to_csv());
    out
}
