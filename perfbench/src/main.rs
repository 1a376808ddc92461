//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <strategy_grid|exascale_big_point|trace_stream|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One workload per process, so `peak_rss_mib` belongs to that workload;
//! `--workload all` runs each workload in a child process of its own and
//! prints one table. Run it from the repository root: inputs and result
//! caches go under `.bench_work/` there and are removed afterwards.

use coopckpt::json::Json;
use coopckpt_perfbench::measure::{self, Options, Outcome};
use coopckpt_perfbench::stats::host_stamp;
use coopckpt_perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <strategy_grid|exascale_big_point|trace_stream|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: coopckpt_perfbench::gate::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad {flag} '{value}'"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("bad {flag} '{value}'"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad {flag} '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        threads,
        work_root: PathBuf::from(".bench_work"),
    };
    let result = if args.trace {
        measure::traced(&opts)
    } else {
        measure::end_to_end(&opts)
    };
    // Leave no empty work root behind (fails harmlessly when not empty).
    let _ = std::fs::remove_dir(&opts.work_root);
    match result {
        Ok(outcome) => {
            print_outcome(&opts, args.trace, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Prints the metric table, the stamp line, and — last — the result line.
fn print_outcome(opts: &Options, trace: bool, outcome: &Outcome) {
    for note in &outcome.notes {
        eprintln!("check failed: {note}");
    }
    for remark in &outcome.remarks {
        eprintln!("note: {remark}");
    }
    println!(
        "# {} seed={} trace={} threads={}",
        opts.workload.name(),
        opts.seed,
        u8::from(trace),
        opts.threads
    );
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!(
            "{:<36} {:>16.6} {:<6} n={:<4} iqr={:.6}",
            m.name,
            m.value,
            m.unit,
            m.samples.len(),
            m.iqr()
        );
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<36} {:>16.6} {:<6} n={}",
        "failed_frac", failed_frac, "ratio", outcome.attempted
    );
    let dispersion = Json::obj(outcome.metrics.iter().chain(&outcome.info).map(|m| {
        (
            m.name,
            Json::obj([
                ("n", Json::Num(m.samples.len() as f64)),
                ("iqr", Json::Num(m.iqr())),
            ]),
        )
    }));
    let stamp = Json::obj([
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("threads", Json::Num(opts.threads as f64)),
        (
            "samples_per_campaign",
            Json::Num(opts.workload.samples_per_campaign() as f64),
        ),
        ("host", host_stamp()),
        ("dispersion", dispersion),
    ]);
    println!("{}", Json::obj([("stamp", stamp)]));
    let metrics = Json::obj(outcome.metrics.iter().map(|m| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }));
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.correct() && finite)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ])
    );
}

/// Runs every workload in a child process and prints one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let text = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("error: {} exited with {}", w.name(), o.status);
                ok = false;
                continue;
            }
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(2)] {
            if !line.starts_with('#') {
                rows.push(format!("{:<20} {line}", w.name()));
            }
        }
        let correct = lines
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|j| j.get("correct").and_then(Json::as_bool));
        ok &= correct == Some(true);
    }
    println!(
        "{:<20} {:<36} {:>16} {:<6} samples / dispersion",
        "workload", "metric", "value", "unit"
    );
    for row in rows {
        println!("{row}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
