//! End-to-end query benchmark for the Edgelet reproduction.
//!
//! ```sh
//! cargo run --release --offline --manifest-path querybench/Cargo.toml -- \
//!     --workload sim-crowd --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Drives whole queries through each host's public entry point, checks
//! every sampled answer against the simulator host, and prints one JSON
//! object as its last line of output. See `querybench/README.md`.

mod daemon_durable;
mod gen;
mod host;
mod oracle;
mod run;
mod serve_mixed;
mod sim_crowd;
mod stats;
mod trace;
mod wrap;

use run::{Metric, Opts, Outcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["sim-crowd", "serve-mixed", "daemon-durable"];

/// Where reports, span files and scratch directories go, relative to
/// the directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(35.0),
            trace: trace.unwrap_or(false),
            scale: gen::Scale::Full,
            out_dir: PathBuf::from(OUT_DIR),
        },
    })
}

fn run_workload(name: &str, opts: &Opts) -> edgelet_core::util::Result<Outcome> {
    match name {
        "sim-crowd" => sim_crowd::run(opts),
        "serve-mixed" => serve_mixed::run(opts),
        _ => daemon_durable::run(opts),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line: exactly the keys the benchmark contract names.
fn result_line(correct: bool, out: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(metrics)
    )
}

/// The report: seed, host facts, oracle counts and every metric.
fn report_json(args: &Args, out: &Outcome, metrics: &[Metric], correct: bool) -> String {
    let o = &args.opts;
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", o.seed.to_string()),
        ("seconds", json_num(o.seconds)),
        ("trace", o.trace.to_string()),
        ("available_parallelism", host::parallelism().to_string()),
        (
            "git_revision",
            json_str(&host::git_revision(Path::new("."))),
        ),
        ("profile", json_str(host::profile())),
        ("correct", correct.to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("oracle_checked", out.checked.to_string()),
        ("oracle_mismatches", out.mismatches.to_string()),
    ];
    if !out.facts.iter().any(|(k, _)| *k == "socket") {
        fields.push(("socket", json_str("none")));
    }
    fields.extend(out.facts.iter().cloned());
    fields.push(("metrics", metrics_json(metrics)));
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("querybench: {e}");
            eprintln!(
                "usage: querybench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.opts.out_dir) {
        eprintln!("querybench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let out = match run_workload(&args.workload, &args.opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("querybench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let unlisted = out.values.unlisted();
    assert!(
        unlisted.is_empty(),
        "metrics missing from the tables: {unlisted:?}"
    );
    let table: &[(&str, &str)] = if args.opts.trace {
        &run::PER_LAYER
    } else {
        &run::END_TO_END
    };
    let metrics = out.values.emit(table);
    let correct = out.mismatches == 0 && out.checked > 0;
    println!("{}", report_json(&args, &out, &metrics, correct));
    println!("{}", result_line(correct, &out, &metrics));
    if !correct {
        eprintln!(
            "querybench: oracle failure: {} of {} checked answers differ from the simulator's",
            out.mismatches, out.checked
        );
        std::process::exit(1);
    }
}
