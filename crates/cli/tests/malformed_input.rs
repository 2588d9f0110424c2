//! Malformed input gives typed errors, never panics: the `acorr` binary
//! exits 1 with `error: ...` on out-of-range sizes, and every parser of
//! outside input returns `Ok` or `Err` on seeded garbage.

use std::process::Command;

use acorr::apps::SUITE_NAMES;
use acorr::mem::{AccessMatrix, PageId};
use acorr::obs::{json, RunManifest};
use acorr::sched::Schedule;
use acorr::sim::{check, DetRng, FaultPlan};
use acorr::track::{render_csv, CorrelationMatrix};
use acorr_cli::args::Args;

/// Garbage inputs per parser.
const CASES: usize = 20_000;

/// Each row used to panic (exit 101) in an application constructor, the
/// traffic driver or the synthetic affinity generator.
#[test]
fn out_of_range_sizes_exit_1_with_an_error() {
    let mut rows: Vec<String> = [
        "run --app SOR --threads 0",
        "track --app SOR --threads 0",
        "place --app SOR --threads 0",
        "serve --app SOR --threads 0",
        "hot --app Water --threads 0",
        "overhead --app LU1k --threads 0",
        "verify --app Ocean --threads 0",
        "profile --app Drift --threads 0",
        "serve --app Water --threads 600 --nodes 2",
        "track --app Barnes --threads 8193",
        "track --app SOR --threads 2049",
        "track --app Spatial --threads 513",
        "serve --threads 1 --nodes 1",
        "serve --threads 0",
        "place --scale 1x1",
        "place --scale 0x4",
        "place --scale 140000x70000",
    ]
    .map(String::from)
    .to_vec();
    rows.extend(SUITE_NAMES.map(|app| format!("track --app {app} --threads 0")));
    for row in &rows {
        let out = Command::new(env!("CARGO_BIN_EXE_acorr"))
            .args(row.split(' '))
            .output()
            .expect("spawn acorr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "acorr {row}: {stderr}");
        assert!(stderr.starts_with("error: "), "acorr {row}: {stderr}");
    }
}

/// Up to 64 characters, half from the valid samples' alphabet (so the
/// parser's delimiters and keywords turn up), the rest ASCII or any
/// Unicode scalar value.
fn garbage(rng: &mut DetRng, alphabet: &[char]) -> String {
    (0..rng.next_below(64))
        .map(|_| match rng.next_below(4) {
            0 | 1 => *rng.choose(alphabet).expect("non-empty alphabet"),
            2 => char::from(rng.next_below(0x80) as u8),
            _ => char::from_u32(rng.next_below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// `sample` after one to four byte edits: overwrite, insert, delete, or
/// duplicate a slice. Edits may split a UTF-8 sequence; those bytes turn
/// into replacement characters.
fn mutate(rng: &mut DetRng, sample: &str) -> String {
    let mut bytes = sample.as_bytes().to_vec();
    for _ in 0..rng.range(1, 5) {
        let i = rng.index(bytes.len() + 1);
        match rng.next_below(4) {
            0 if i < bytes.len() => bytes[i] = rng.next_u64() as u8,
            1 => bytes.insert(i, rng.next_u64() as u8),
            2 if i < bytes.len() => {
                bytes.remove(i);
            }
            _ => {
                let j = i + rng.index(bytes.len() - i + 1);
                let slice = bytes[i..j].to_vec();
                bytes.splice(i..i, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every valid sample parses; random text and mutated samples return
/// `Ok` or `Err` without panicking.
fn fuzz<T, E>(name: &str, samples: &[&str], parse: impl Fn(&str) -> Result<T, E>) {
    for sample in samples {
        assert!(parse(sample).is_ok(), "{name} rejects {sample:?}");
    }
    let alphabet: Vec<char> = samples.iter().flat_map(|s| s.chars()).collect();
    check(name, CASES, |rng| {
        let input = if rng.chance(0.5) {
            garbage(rng, &alphabet)
        } else {
            let sample = *rng.choose(samples).expect("samples");
            mutate(rng, sample)
        };
        let _ = parse(&input);
    });
}

#[test]
fn fault_plan_parse_survives_garbage() {
    fuzz(
        "fault_plan_parse_survives_garbage",
        &[
            "none",
            "heavy",
            "chaos,seed=3",
            "moderate,seed=7,drop_prob=0.05,max_retries=2,retry_timeout_us=90",
            "delay_prob=0.2,max_delay_us=300,reorder_prob=0.1,reorder_depth=3",
            "slow_every=2,slow_period_us=2000,slow_duty=0.4,slow_factor=2.5",
            "dup_prob=0.3,corrupt_prob=0.1,partition_prob=0.5,partition_window_us=700,crash_prob=1",
        ],
        FaultPlan::parse,
    );
}

#[test]
fn schedule_parse_token_survives_garbage() {
    fuzz(
        "schedule_parse_token_survives_garbage",
        &["s1", "s1:1", "s1:0.2.1", "s1!1", "s1:3.0!2.1"],
        Schedule::parse_token,
    );
}

#[test]
fn json_parse_survives_garbage() {
    fuzz(
        "json_parse_survives_garbage",
        &[
            r#"{"a": [1, -2.5e3, "xA\n", null, true], "b": {"c": ""}}"#,
            "[[], {}, false]",
            "18446744073709551615",
            r#""a\u0041\t π""#,
        ],
        json::parse,
    );
}

#[test]
fn manifest_from_json_survives_garbage() {
    let manifest = RunManifest::new("acorr run")
        .param("app", "SOR")
        .param("threads", "8")
        .param("faults", "moderate,seed=7")
        .with_digest("fnv1a:0123456789abcdef".into())
        .to_json();
    fuzz(
        "manifest_from_json_survives_garbage",
        &[&manifest],
        RunManifest::from_json,
    );
}

#[test]
fn correlation_from_csv_survives_garbage() {
    let mut corr = CorrelationMatrix::zeros(4);
    corr.set(0, 1, 7);
    corr.set(2, 2, 3);
    corr.set(1, 3, 12);
    let csv = render_csv(&corr);
    fuzz(
        "correlation_from_csv_survives_garbage",
        &[&csv, ""],
        CorrelationMatrix::from_csv,
    );
}

#[test]
fn access_from_csv_survives_garbage() {
    let mut access = AccessMatrix::new(3, 40);
    for (t, p) in [(0, 0), (0, 39), (1, 5), (2, 5), (2, 17)] {
        access.record(t, PageId(p));
    }
    let csv = access.to_csv();
    fuzz(
        "access_from_csv_survives_garbage",
        &[&csv, "0,0\n"],
        AccessMatrix::from_csv,
    );
}

#[test]
fn args_parse_survives_garbage() {
    fuzz(
        "args_parse_survives_garbage",
        &[
            "track --app SOR --threads 8",
            "serve --scenario churn --steps 8 --help",
            "place -h --nodes 4",
            "--help",
        ],
        |line| Args::parse(line.split(' ').map(String::from)),
    );
}
