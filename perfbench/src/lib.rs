//! The acorr benchmark: three closed-loop workloads over public `acorr`
//! APIs, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced run. See `perfbench/README.md`.

pub mod scale;
pub mod serve;
pub mod trace;
pub mod tracked;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::{Tracer, OP};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tracked-suite", "scale-place", "serve-hotspot"];

/// End-to-end metrics `(name, unit)`, reported by every workload from the
/// untraced run. `peak_rss_mb` is measured from outside the process by
/// `run.py`; the binary reports the rest.
///
/// Op time is gated at p75, not at the median: the reference VM's host
/// changes speed by 1.25–1.9× for seconds to minutes, so a run's median
/// lands in whichever state held most of the run while its p75 stays in
/// the slower one whenever a quarter of the run sees it (see README.md).
/// The median, p90 and throughput are printed, not gated.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p75", "ms"),
    ("cut_ratio", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload from the
/// traced run. A layer the workload never calls reads 0.
///
/// `<layer>.<call>_ms` is the summed self time of the spans named
/// `<layer>.<call>` per op span (per set-up for `place.synth`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("dsm.iterate_ms", "ms"),
    ("dsm.tracked_iter_ms", "ms"),
    ("dsm.construct_ms", "ms"),
    ("dsm.iterations", "count"),
    ("dsm.remote_misses", "count"),
    ("dsm.tracking_faults", "count"),
    ("dsm.coherence_faults", "count"),
    ("dsm.net_mbytes", "MB"),
    ("dsm.retries", "count"),
    ("dsm.measured_remote_misses", "count"),
    ("dsm.slowdown_pct", "%"),
    ("mem.twin_faults", "count"),
    ("mem.diffs_created", "count"),
    ("mem.diff_mbytes", "MB"),
    ("apps.build_ms", "ms"),
    ("track.from_access_ms", "ms"),
    ("track.from_edges_ms", "ms"),
    ("track.cut_ms", "ms"),
    ("track.store_edges", "count"),
    ("track.store_mb", "MB"),
    ("place.multilevel_ms", "ms"),
    ("place.min_cost_ms", "ms"),
    ("place.synth_ms", "ms"),
    ("place.plan_ms", "ms"),
    ("place.candidates", "count"),
    ("place.accept_ratio", "ratio"),
    ("place.moves", "count"),
    ("obs.detect_ms", "ms"),
    ("obs.windows", "count"),
    ("obs.shifts", "count"),
    ("obs.shift_precision", "ratio"),
    ("obs.detect_recall", "ratio"),
    ("sim.traffic_ms", "ms"),
    ("sim.edges_per_step", "count"),
    ("core.loop_self_ms", "ms"),
    ("core.op_spans", "count"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("share.hot_path_pct", "%"),
];

/// The root span a traced set-up is wrapped in; spans under it are
/// counted per set-up, all others per op.
pub(crate) const SETUP: &str = "core.setup";

/// Worker threads handed to the library. One: with `nproc` (2) workers on
/// a 2-vCPU VM, the run-to-run spread of the tracked suite's median op time
/// over five seeds was ~17%, against ~5% with one.
pub const JOBS: usize = 1;

/// One run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl RunConfig {
    /// Seconds each measured loop runs: the whole run untraced, or half
    /// for each of the untraced and traced loops of a traced run.
    pub fn loop_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Traced-run divergences from the untraced path (not failures).
    pub warnings: Vec<String>,
    /// Spans of the traced run, as CSV.
    pub spans_csv: Option<String>,
}

impl Outcome {
    /// Records one op's verdict; prints why it failed.
    pub fn op(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.notes.push(format!("FAILED {label}: {why}"));
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Host time of `f`, in seconds, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up times of a run, every one of them cold. The set-up before the
/// first op runs in this process. Between ops (untimed as op time) a
/// workload repeats it in a fresh process — this binary with
/// `--setup-only` — so that every repeat first-touches its memory as the
/// first set-up did, and the samples span the whole run, like the op
/// samples.
#[derive(Debug)]
pub(crate) struct Setups {
    workload: &'static str,
    seed: u64,
    secs: Vec<f64>,
}

impl Setups {
    pub(crate) fn new(workload: &'static str, seed: u64) -> Setups {
        Setups {
            workload,
            seed,
            secs: Vec::new(),
        }
    }

    /// Runs and times the set-up in this process.
    pub(crate) fn first<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(setup);
        self.secs.push(secs);
        out
    }

    /// Times one set-up in a fresh process and waits for it to end.
    ///
    /// # Panics
    ///
    /// Panics if the process cannot start, fails or prints no time.
    pub(crate) fn repeat(&mut self) {
        let exe = std::env::current_exe().expect("the benchmark binary has a path");
        let seed = self.seed.to_string();
        let out = Command::new(exe)
            .args(["--workload", self.workload, "--seed", &seed, "--setup-only"])
            .stderr(Stdio::inherit())
            .output()
            .expect("the set-up process starts");
        assert!(out.status.success(), "set-up process: {}", out.status);
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text
            .trim()
            .parse()
            .expect("the set-up process prints seconds");
        self.secs.push(secs);
    }

    /// The p75 set-up time, in seconds, for the same reason as
    /// `op_ms_p75`.
    pub(crate) fn p75(&self) -> f64 {
        percentile(&self.secs, 75.0)
    }
}

/// Runs one set-up of `workload` for `seed` and returns its host seconds
/// (the work of a `--setup-only` process).
///
/// # Errors
///
/// An unknown workload name.
pub fn setup_secs(workload: &str, seed: u64) -> Result<f64, String> {
    let secs = match workload {
        "tracked-suite" => timed(|| tracked::setup(seed)).1,
        "scale-place" => timed(|| scale::generate(seed, &mut Tracer::off())).1,
        "serve-hotspot" => timed(|| serve::setup(seed)).1,
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    Ok(secs)
}

/// Runs `op` in a closed loop — op `i + 1` starts when op `i` returned —
/// until `seconds` have passed. `op` returns the host seconds it measured
/// for itself.
pub(crate) fn closed_loop(seconds: f64, mut op: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        times.push(op(times.len()));
    }
    times
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks; 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sets the end-to-end timing metrics from the set-ups and per-op host
/// seconds, and prints the median and the throughput; an op completes
/// `work_per_op` units (iterations, threads, steps).
pub(crate) fn set_timings(out: &mut Outcome, setups: &Setups, op_secs: &[f64], work_per_op: f64) {
    let ms: Vec<f64> = op_secs.iter().map(|s| s * 1e3).collect();
    let [p50, p75, p90] = [50.0, 75.0, 90.0].map(|p| percentile(&ms, p));
    let total: f64 = op_secs.iter().sum();
    let setup_s = setups.p75();
    out.set("setup_s", setup_s);
    out.set("op_ms_p75", p75);
    let beyond = ms.len() - (0.75 * ms.len() as f64).ceil() as usize;
    out.notes.push(format!(
        "ops {} (samples beyond p75: {beyond}), op ms p50 {p50:.3} p75 {p75:.3} p90 {p90:.3}, \
         work per second {:.3}, cold set-ups {} (first {:.4} s, p75 {setup_s:.4} s)",
        ms.len(),
        work_per_op * ms.len() as f64 / total,
        setups.secs.len(),
        setups.secs[0]
    ));
}

/// Sets the per-layer time metrics and tracing overhead from a traced run.
/// `untraced` and `traced` are host seconds per op of the two loops;
/// `hot_path` names the spans whose share of op busy time the workload's
/// sizing claims.
pub(crate) fn set_layer_times(
    out: &mut Outcome,
    tracer: &Tracer,
    untraced: &[f64],
    traced: &[f64],
    hot_path: &[&str],
) {
    let spans = tracer.spans();
    let self_ns = tracer.self_times_ns();
    // Root of each span, to tell set-up spans from op spans.
    let mut root = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let r = span.parent.map_or(i, |p| root[p]);
        root.push(r);
    }
    let ops = tracer.count(OP).max(1) as f64;
    let setups = tracer.count(SETUP).max(1) as f64;
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let per = if spans[root[i]].name == SETUP {
            setups
        } else {
            ops
        };
        *by_name.entry(span.name).or_insert(0.0) += self_ns[i] as f64 / 1e6 / per;
    }
    for &(name, unit) in &PER_LAYER {
        if let Some(call) = name.strip_suffix("_ms").filter(|_| unit == "ms") {
            if call.starts_with("trace.") || call == "core.loop_self" {
                continue;
            }
            out.set(name, by_name.get(call).copied().unwrap_or(0.0));
        }
    }
    out.set("core.loop_self_ms", by_name.get(OP).copied().unwrap_or(0.0));
    out.set("core.op_spans", tracer.count(OP) as f64);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 * 1e3;
    let (u, t) = (mean(untraced), mean(traced));
    out.set("trace.untraced_op_ms", u);
    out.set("trace.traced_op_ms", t);
    out.set("trace.overhead_pct", (t / u - 1.0) * 100.0);
    // Busy (self) time under op spans, by layer and for the hot path.
    let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
    let mut hot_ns = 0.0;
    for (i, span) in spans.iter().enumerate() {
        if spans[root[i]].name == OP {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layer_ns.entry(layer).or_insert(0.0) += self_ns[i] as f64;
            if hot_path.contains(&span.name) {
                hot_ns += self_ns[i] as f64;
            }
        }
    }
    let busy: f64 = layer_ns.values().sum::<f64>().max(1.0);
    let mut line = String::from("busy share by layer:");
    for (layer, ns) in &layer_ns {
        let _ = write!(line, " {layer} {:.1}%", ns / busy * 100.0);
    }
    let _ = write!(
        line,
        "; hot path {hot_path:?} {:.1}%",
        hot_ns / busy * 100.0
    );
    out.notes.push(line);
    out.set("share.hot_path_pct", hot_ns / busy * 100.0);
}

/// Fills every per-layer metric the workload did not set with 0: the
/// workload never calls that layer.
fn zero_fill_layers(out: &mut Outcome) {
    for &(name, _) in &PER_LAYER {
        out.metrics.entry(name).or_insert(0.0);
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(workload: &str, config: &RunConfig) -> Result<Outcome, String> {
    let mut out = match workload {
        "tracked-suite" => tracked::run(config),
        "scale-place" => scale::run(config),
        "serve-hotspot" => serve::run(config),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    if config.trace {
        zero_fill_layers(&mut out);
    }
    Ok(out)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics of the run kind, each `{"value", "unit"}`.
///
/// # Panics
///
/// Panics if the workload left a metric of the run kind unset (a bug in
/// the harness).
pub fn result_json(out: &Outcome, trace: bool) -> String {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        if name == "peak_rss_mb" {
            continue; // added by run.py, which sees the process from outside
        }
        let value = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
