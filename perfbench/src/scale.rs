//! `scale-place`: the multilevel partitioner on a synthetic power-law
//! affinity store of 100,000 threads for a 256-node cluster (`acorr place
//! --scale 100000x256`, the CI smoke point). Set-up generates the store;
//! one op is one `multilevel_place` call, which only reads it.
//!
//! Not the 1,000,000 × 1,000 point: its op time moves by ±10% between
//! repeats of one seed on a 2-vCPU VM, too much for a steady run of a few
//! ops; 100,000 × 256 repeats within ~2%.

use crate::trace::{Tracer, OP};
use crate::{
    closed_loop, set_layer_times, set_timings, timed, Outcome, RunConfig, Setups, JOBS, SETUP,
};
use acorr::mapping_digest;
use acorr::place::{multilevel_place, power_law_affinity};
use acorr::sim::{ClusterConfig, Mapping};
use acorr::track::{cut_cost, SparseCorrelation};

/// Threads placed.
pub const THREADS: usize = 100_000;
/// Cluster nodes.
pub const NODES: usize = 256;
/// Affinity edges per thread.
pub const DEGREE: usize = 8;
/// Ops between two repeated set-ups (a set-up is ~1/5 of an op).
const SETUP_EVERY: usize = 5;

/// Bytes of one adjacency entry of the sparse store: `(u32 partner, u64
/// weight)`. Each edge is stored at both endpoints.
const ENTRY_BYTES: usize = std::mem::size_of::<(u32, u64)>();

/// The workload's generated input.
pub(crate) struct Input {
    corr: SparseCorrelation,
    cluster: ClusterConfig,
    /// Cut of the stretch placement, the quality baseline.
    stretch_cut: u64,
}

/// Generates the workload's input.
pub(crate) fn generate(seed: u64, t: &mut Tracer) -> Input {
    t.span(SETUP, |t| {
        let corr = t.span("place.synth", |_| {
            power_law_affinity(THREADS, DEGREE, seed, JOBS)
        });
        let cluster = ClusterConfig::new(NODES, THREADS).expect("valid scale cluster");
        let stretch_cut = cut_cost(&corr, &Mapping::stretch(&cluster));
        Input {
            corr,
            cluster,
            stretch_cut,
        }
    })
}

/// One placement's result, for the checks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Placed {
    cut: u64,
    digest: String,
}

/// Output checks: balanced mapping, and cut and digest equal to every
/// earlier op's (the input is the same store every op).
fn check(mapping: &Mapping, placed: &Placed, first: &mut Option<Placed>) -> Result<(), String> {
    if !mapping.is_balanced() {
        return Err("multilevel mapping is unbalanced".into());
    }
    let first = first.get_or_insert_with(|| placed.clone());
    if first != placed {
        return Err(format!("{placed:?} differs from the first op's {first:?}"));
    }
    Ok(())
}

/// Runs placements for the loop's seconds. With `setups`, every
/// `SETUP_EVERY`-th op is followed by a set-up timed in a fresh process.
fn run_loop(
    input: &Input,
    config: &RunConfig,
    t: &mut Tracer,
    phase: &str,
    out: &mut Outcome,
    first: &mut Option<Placed>,
    mut setups: Option<&mut Setups>,
) -> Vec<f64> {
    closed_loop(config.loop_seconds(), |i| {
        t.set_op(i as u64);
        let (mapping, secs) = timed(|| {
            t.span(OP, |t| {
                t.span("place.multilevel", |_| {
                    multilevel_place(&input.corr, &input.cluster)
                })
            })
        });
        let placed = Placed {
            cut: cut_cost(&input.corr, &mapping),
            digest: mapping_digest(&mapping),
        };
        out.notes.push(format!(
            "{phase} op {i} {:.3} ms cut={} digest={}",
            secs * 1e3,
            placed.cut,
            placed.digest
        ));
        out.op(&format!("{phase} op {i}"), check(&mapping, &placed, first));
        if let Some(setups) = setups.as_deref_mut() {
            if i % SETUP_EVERY == SETUP_EVERY - 1 {
                setups.repeat();
            }
        }
        secs
    })
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = if config.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut setups = Setups::new("scale-place", config.seed);
    let input = setups.first(|| generate(config.seed, &mut tracer));
    let mut first = None;
    let untraced = run_loop(
        &input,
        config,
        &mut Tracer::off(),
        "untraced",
        &mut out,
        &mut first,
        Some(&mut setups),
    );
    let cut = first.as_ref().map_or(0, |p| p.cut);
    if !config.trace {
        let stretch_cut = input.stretch_cut;
        set_timings(&mut out, &setups, &untraced, THREADS as f64);
        out.set("cut_ratio", cut as f64 / stretch_cut as f64);
        out.notes
            .push(format!("cut {cut} vs stretch {stretch_cut}"));
        return out;
    }
    let mut traced_first = None;
    let traced = run_loop(
        &input,
        config,
        &mut tracer,
        "traced",
        &mut out,
        &mut traced_first,
        None,
    );
    if traced_first != first {
        out.warnings.push(format!(
            "traced {traced_first:?} differs from untraced {first:?}"
        ));
    }
    set_layer_times(&mut out, &tracer, &untraced, &traced, &["place.multilevel"]);
    let edges = input.corr.edge_count();
    out.set("track.store_edges", edges as f64);
    // Computed from the entry size, not measured.
    out.set("track.store_mb", (2 * edges * ENTRY_BYTES) as f64 / 1e6);
    out.spans_csv = Some(tracer.to_csv());
    out
}
