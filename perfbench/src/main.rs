//! `acorr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, the result JSON. Usually
//! started through `perfbench/run.py`, which builds it, measures its peak
//! RSS and adds `peak_rss_mb`.
//!
//! `acorr-perfbench --workload <name> --seed <n> --setup-only` runs one
//! set-up of the workload and prints its host seconds: the workloads start
//! it between ops to time their set-up cold.

use acorr_perfbench::{result_json, run, setup_secs, RunConfig, JOBS};
use std::path::Path;
use std::process::ExitCode;

/// The command line: workload, settings, and whether to run one set-up
/// only.
fn parse(args: &[String]) -> Result<(String, RunConfig, bool), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(config.seconds > 0.0 && config.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, config, setup_only))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config, setup_only) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if setup_only {
        return match setup_secs(&workload, config.seed) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    println!(
        "workload {workload} seed {} seconds {} trace {} jobs {} nproc {}",
        config.seed,
        config.seconds,
        config.trace as u8,
        JOBS,
        acorr::sim::available_threads()
    );
    let out = match run(&workload, &config) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    for warning in &out.warnings {
        println!("WARNING traced-run divergence: {warning}");
    }
    println!(
        "failed_op_ratio {} ({} of {} ops failed)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    if let Some(csv) = &out.spans_csv {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{workload}-seed{}.csv", config.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&out, config.trace));
    ExitCode::SUCCESS
}
