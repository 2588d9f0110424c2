//! The benchmark's own tests: the rebuilt (traced) paths reproduce the
//! library's results, and the metric lists match `BENCHMARK.json`.

use acorr::apps::Sor;
use acorr::obs::json;
use acorr::place::Strategy;
use acorr::Workbench;
use acorr_perfbench::trace::{Tracer, OP};
use acorr_perfbench::{serve, tracked, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn rebuilt_tracked_pipeline_matches_observed_heuristic_run() {
    let bench = Workbench::new(2, 8)
        .unwrap()
        .with_threads(acorr_perfbench::JOBS);
    let app = || Sor::new(64, 64, 8);
    let want = bench
        .observed_heuristic_run(app, Strategy::MinCost, tracked::MEASURED)
        .unwrap();
    let mut tracer = Tracer::on();
    let rebuilt = tracer
        .span(OP, |t| tracked::pipeline(&bench, app, t))
        .unwrap();
    assert_eq!(rebuilt.row, want.row, "rebuilt pipeline");
    let library = tracked::pipeline(&bench, app, &mut Tracer::off()).unwrap();
    assert_eq!(library.row, want.row, "library pipeline");
    assert_eq!(library.slowdown_pct, rebuilt.slowdown_pct);
    // Every engine call of the rebuilt op was traced.
    assert_eq!(tracer.count("dsm.tracked_iter"), 1);
    assert_eq!(tracer.count("dsm.construct"), 3);
    assert_eq!(tracer.count("dsm.iterate"), 5);
}

#[test]
fn every_suite_app_runs_the_iterations_the_traced_run_counts() {
    // `dsm.iterations` counts engine barriers over barriers per measured
    // iteration; every app must give the pipeline's iteration count.
    let bench = Workbench::new(2, 8).unwrap();
    for app in acorr::apps::SUITE_NAMES {
        let p = tracked::pipeline(
            &bench,
            || acorr::apps::by_name(app, 8).unwrap(),
            &mut Tracer::on(),
        )
        .unwrap();
        assert_eq!(
            p.engine.barriers * tracked::MEASURED as u64,
            p.measured.barriers * tracked::ITERATIONS_PER_OP as u64,
            "{app}"
        );
    }
}

#[test]
fn rebuilt_serve_loop_reproduces_the_pinned_hotspot_timeline() {
    let bench = Workbench::new(8, 64).unwrap();
    let options = serve::options();
    let report = bench.serve_traffic(&options);
    let mut tracer = Tracer::on();
    let rebuilt = serve::rebuilt_serve(&bench, &options, &mut tracer, 0);
    let digest = serve::timeline_digest(&rebuilt.timeline);
    assert_eq!(digest, "fnv1a:f2e8753835019d00");
    assert_eq!(digest, report.timeline_digest());
    assert_eq!(rebuilt.timeline, report.timeline);
    assert_eq!(
        (rebuilt.shifts, rebuilt.accepted, rebuilt.rejected),
        (report.shifts, report.accepted, report.rejected)
    );
    assert_eq!(
        (rebuilt.served_cut, rebuilt.static_cut),
        (report.served_cut, report.static_cut)
    );
    assert_eq!(rebuilt.final_mapping, report.final_mapping);
    assert_eq!(tracer.count(OP), options.steps);
    assert_eq!(tracer.count("obs.detect"), options.steps);
    assert_eq!(tracer.count("place.refine_kl"), report.shifts);
}

#[test]
fn detection_counts_shifts_within_one_window() {
    // Scripted at 12, 24, 36; fired at 12 and 25 (within window 2), 30
    // (spurious).
    let (recall, precision) = serve::detection(&[12, 24, 36], &[12, 25, 30], 2);
    assert_eq!(recall, 2.0 / 3.0);
    assert_eq!(precision, 2.0 / 3.0);
    assert_eq!(serve::detection(&[], &[], 2), (0.0, 0.0));
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(acorr_perfbench::percentile(&v, 50.0), 3.0);
    assert_eq!(acorr_perfbench::percentile(&v, 90.0), 4.6);
    assert_eq!(acorr_perfbench::percentile(&[], 50.0), 0.0);
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn names_and_units(v: &json::Value) -> Vec<(String, String)> {
    v.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_lists_are_valid_and_match_benchmark_json() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for name in &all {
        assert!(valid_name(name), "metric name {name:?}");
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names are unique"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let bench = json::parse(&text).unwrap();
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(bench.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(bench.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(json::Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
