//! Figure 3 of the paper: the minimum aggregate file-system bandwidth each
//! strategy needs to sustain 80 % platform efficiency on the prospective
//! 7 PB / 50,000-node system, as the node MTBF varies (5 → 25 years).
//!
//! The one figure that is not a scenario preset: a bandwidth bisection
//! per strategy per MTBF point, run on one thread per core. Environment
//! variables scale it: `COOPCKPT_SAMPLES` (Monte-Carlo instances per
//! point, default 100), `COOPCKPT_SPAN_DAYS` (simulated span, default 60)
//! and `COOPCKPT_BISECT_ITERS` (bisection steps, default 7). A malformed
//! value, or a zero sample count, span or step count, exits non-zero
//! naming the variable.
//!
//! ```sh
//! COOPCKPT_SAMPLES=20 COOPCKPT_SPAN_DAYS=20 \
//!   cargo run --release -p coopckpt-bench --bin fig3 [-- --csv fig3.csv]
//! ```

use coopckpt::experiments::{min_bandwidth_for_efficiency, theory_min_bandwidth};
use coopckpt::prelude::*;
use std::str::FromStr;

/// Parses `raw`, the value of environment variable `key`: `default` when
/// unset, an error naming `key` when malformed or rejected by `ok`.
fn knob<T: FromStr>(
    key: &str,
    raw: Option<String>,
    default: T,
    ok: fn(&T) -> bool,
) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(raw) => raw
            .trim()
            .parse()
            .ok()
            .filter(ok)
            .ok_or_else(|| format!("{key}='{raw}' is malformed or out of range")),
    }
}

/// [`knob`] on the process environment.
fn env<T: FromStr>(key: &str, default: T, ok: fn(&T) -> bool) -> Result<T, String> {
    knob(key, std::env::var(key).ok(), default, ok)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("fig3: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let samples: usize = env("COOPCKPT_SAMPLES", 100, |&n| n > 0)?;
    let span_days: f64 = env("COOPCKPT_SPAN_DAYS", 60.0, |&d: &f64| {
        d.is_finite() && d > 0.0
    })?;
    let iters: u32 = env("COOPCKPT_BISECT_ITERS", 7, |&n| n > 0)?;
    let mc = MonteCarloConfig::new(samples);
    let target = 0.80;
    let (lo, hi) = (200.0, 200_000.0); // GB/s search bracket
    let tbps = |found: Option<f64>| match found {
        Some(gbps) => format!("{:.2}", gbps / 1000.0),
        None => format!("> {:.0}", hi / 1000.0),
    };

    let mut report = Report::new("fig3", None);
    report.note(format!(
        "Figure 3: min bandwidth for 80% efficiency vs node MTBF (prospective system) — \
         {samples} samples/point, {span_days}-day span, {iters} bisection steps"
    ));
    let table = report.section("fig3", ["node_mtbf_years", "series", "min_bandwidth_tbps"]);
    for years in [5.0, 10.0, 15.0, 20.0, 25.0] {
        let template = Scenario {
            platform: PlatformSpec::Preset {
                name: "prospective".to_string(),
                bandwidth: None,
                node_mtbf: Some(Duration::from_years(years)),
            },
            span: Duration::from_days(span_days),
            ..Scenario::default()
        }
        .into_config()?;
        for strategy in Strategy::all_seven() {
            let found =
                min_bandwidth_for_efficiency(&template, strategy, target, lo, hi, iters, &mc);
            table.row([
                Cell::float(years, 0),
                Cell::text(strategy.name()),
                Cell::text(tbps(found)),
            ]);
        }
        let theory = theory_min_bandwidth(&template.platform, &template.classes, target, lo, hi);
        table.row([
            Cell::float(years, 0),
            Cell::text("Theoretical Model"),
            Cell::text(tbps(theory)),
        ]);
    }

    print!("{}", report.to_text());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--csv" {
            let path = args.next().ok_or("--csv needs a path")?;
            std::fs::write(&path, report.to_csv())?;
            eprintln!("# CSV written to {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_take_the_default_and_valid_ones_parse() {
        assert_eq!(knob("K", None, 100usize, |&n| n > 0), Ok(100));
        assert_eq!(knob("K", Some(" 2 ".into()), 100usize, |&n| n > 0), Ok(2));
        assert_eq!(knob("K", Some("0".into()), 5usize, |_| true), Ok(0));
    }

    #[test]
    fn malformed_or_zero_knobs_are_errors_naming_the_variable() {
        let positive_int =
            |raw: &str| knob("COOPCKPT_SAMPLES", Some(raw.into()), 1usize, |&n| n > 0);
        let days = |raw: &str| {
            knob("COOPCKPT_SPAN_DAYS", Some(raw.into()), 1.0, |&d: &f64| {
                d.is_finite() && d > 0.0
            })
        };
        for raw in ["abc", "0", "-3", ""] {
            let e = positive_int(raw).unwrap_err();
            assert!(e.contains("COOPCKPT_SAMPLES") && e.contains(raw), "{e}");
        }
        for raw in ["abc", "0", "-1", "inf", "NaN"] {
            let e = days(raw).unwrap_err();
            assert!(e.contains("COOPCKPT_SPAN_DAYS") && e.contains(raw), "{e}");
        }
    }
}
