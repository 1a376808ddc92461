//! Report output stability: thread-count determinism and golden files.
//!
//! * **Determinism** — one scenario executed at `--threads 1`, `2` and
//!   `8` must produce bit-identical `Report` output: the Monte-Carlo pool
//!   orders results by seed and every random draw comes from per-seed
//!   (and, within a run, per-failure-class) RNG streams, so worker count
//!   can never leak into results.
//! * **Golden files** — the rendered text/CSV/JSON `Report` output of two
//!   checked-in `scenarios/` presets, and of one small sweep per sweep
//!   axis, is itself checked in under `tests/golden/` and compared byte
//!   for byte, so format drift (added columns, reordered sections,
//!   float-precision changes) is caught in review instead of silently
//!   shipped. After an *intentional* format
//!   change, refresh with:
//!
//!   ```sh
//!   COOPCKPT_BLESS=1 cargo test --test report_stability
//!   ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use std::path::PathBuf;

fn preset_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
}

/// Runs `sc` through the campaign runner on `threads` workers, as
/// `coopckpt run --threads <n>` does, and returns the point's text, CSV
/// and JSON (scenario echo included). Each run gets a fresh
/// operating-point cache, so every thread count really recomputes.
fn render_on_threads(sc: &Scenario, threads: usize) -> (String, String, String) {
    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    let opts = CampaignOptions {
        threads,
        cache: None,
        op_cache: Some(std::sync::Arc::new(OpPointCache::new())),
    };
    let campaign = run_suite(&Suite::single(sc.clone()), &opts).expect("scenario runs");
    let entry = &campaign.entries[0];
    (entry.text.clone(), entry.csv.clone(), entry.report.pretty())
}

#[test]
fn thread_count_never_changes_the_report() {
    let base = Scenario::load(preset_path("multilevel_recovery")).expect("preset loads");
    let single = render_on_threads(&base, 1);
    for threads in [2, 8] {
        let multi = render_on_threads(&base, threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
        assert_eq!(single.2, multi.2, "JSON differs at --threads {threads}");
    }
}

/// The campaign x Monte-Carlo matrix on the same preset: the report must
/// also be stable when the *campaign* pool owns the threads and workers
/// steal the point's sample chunks, at thread counts below, at, and above
/// the sample count's natural parallelism.
#[test]
fn campaign_pool_never_changes_the_report_either() {
    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    use std::sync::Arc;

    let suite = Suite::load(preset_path("multilevel_recovery")).expect("preset loads");
    let render = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        let campaign = run_suite(&suite, &opts).expect("preset runs as a one-point suite");
        (campaign.to_text(), campaign.to_csv())
    };
    let single = render(1);
    for threads in [2, 8] {
        let multi = render(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
    }
}

/// Compares (or, under `COOPCKPT_BLESS=1`, rewrites) one preset's
/// rendered report against its golden files.
fn check_golden(preset: &str) {
    let sc = Scenario::load(preset_path(preset)).expect("preset loads");
    check_golden_scenario(preset, &sc);
}

/// Runs `sc` and compares its rendered report against the golden files
/// `tests/golden/<name>.{txt,csv,json}`.
fn check_golden_scenario(name: &str, sc: &Scenario) {
    let report = run_scenario(sc).expect("scenario runs");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var("COOPCKPT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    for (ext, rendered) in [
        ("txt", report.to_text()),
        ("csv", report.to_csv()),
        ("json", report.to_json().pretty() + "\n"),
    ] {
        let path = dir.join(format!("{name}.{ext}"));
        if bless {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read golden file {} ({e}); run COOPCKPT_BLESS=1 \
                 cargo test --test report_stability to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered, expected,
            "{name}.{ext} drifted from its golden file — if the format \
             change is intentional, re-bless with COOPCKPT_BLESS=1"
        );
    }
}

/// Campaign-level queue differential (the `heap-oracle` CI lane): the
/// checked-in `paper_grid` suite — all seven strategies at two bandwidth
/// points — runs once on the default calendar queue and once on the
/// binary-heap oracle, and the merged campaign documents are diffed with
/// [`compare_campaigns`] at **relative tolerance 0**, i.e. bit-equality
/// on every numeric cell of every point's report.
///
/// Each run gets a *fresh* [`OpPointCache`]: with a shared (or the
/// process-global) cache the second run would be served memoized results
/// from the first and the comparison would be vacuous.
///
/// Off by default (it doubles this suite's runtime); CI enables it with
/// `--features heap-oracle`.
#[cfg(feature = "heap-oracle")]
#[test]
fn paper_grid_campaign_is_bit_identical_on_the_heap_oracle() {
    use std::sync::Arc;

    let suite_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("paper_grid.json");
    let suite = Suite::load(&suite_path).expect("paper_grid suite loads");
    let run_with_backend = |heap: bool| {
        use_heap_oracle(heap);
        let opts = CampaignOptions {
            threads: 2,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        let campaign = run_suite(&suite, &opts).expect("paper_grid runs");
        use_heap_oracle(false);
        campaign.to_json()
    };
    let calendar = run_with_backend(false);
    let heap = run_with_backend(true);
    let outcome = compare_campaigns(&calendar, &heap, 0.0, "calendar-queue", "heap-oracle")
        .expect("campaign documents are comparable");
    assert_eq!(
        outcome.differences,
        0,
        "paper_grid diverged between queue backends:\n{}",
        outcome.report.to_text()
    );
}

#[test]
fn golden_report_custom_lab() {
    check_golden("custom_lab");
}

#[test]
fn golden_report_multilevel_recovery() {
    check_golden("multilevel_recovery");
}

// ----- sweep goldens: one per sweep axis ---------------------------------
//
// Small sweeps (2 samples, 2-3 days) pinning the whole sweep path: the
// roster per axis, the Theorem-1 bound rows, the energy metric on the
// power-ratio axis, and the report notes.

#[test]
fn golden_sweep_bandwidth() {
    let sc = Scenario::load(preset_path("apex_workload")).expect("preset loads");
    check_golden_scenario("sweep_bandwidth", &sc);
}

#[test]
fn golden_sweep_ckpt_mem_fraction() {
    let sc = Scenario::load(preset_path("ckpt_mem_fraction")).expect("preset loads");
    check_golden_scenario("sweep_ckpt_mem_fraction", &sc);
}

fn inline_sweep(doc: &str) -> Scenario {
    Scenario::parse(doc).expect("inline sweep scenario parses")
}

#[test]
fn golden_sweep_mtbf() {
    // The power model pins the "power model ignored" note.
    check_golden_scenario(
        "sweep_mtbf",
        &inline_sweep(
            r#"{"name": "sweep-mtbf", "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "power": "cielo", "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "mtbf_years", "values": [2, 20]}}"#,
        ),
    );
}

#[test]
fn golden_sweep_tiers() {
    check_golden_scenario(
        "sweep_tiers",
        &inline_sweep(
            r#"{"name": "sweep-tiers", "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "tiers", "values": [0, 2]}}"#,
        ),
    );
}

#[test]
fn golden_sweep_weibull_shape() {
    check_golden_scenario(
        "sweep_weibull_shape",
        &inline_sweep(
            r#"{"name": "sweep-weibull-shape",
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "weibull_shape", "values": [0.7, 1.5]}}"#,
        ),
    );
}

#[test]
fn golden_sweep_power_ratio() {
    check_golden_scenario(
        "sweep_power_ratio",
        &inline_sweep(
            r#"{"name": "sweep-power-ratio",
                "platform": {"preset": "cielo", "bandwidth_gbps": 40}, "power": "cielo",
                "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "power_ratio", "values": [0.5, 2]}}"#,
        ),
    );
}

#[test]
fn golden_sweep_local_failure_share() {
    // A tiered base, so local restores have a tier to read from; the
    // configured class mix pins the "failure_classes ignored" note.
    check_golden_scenario(
        "sweep_local_failure_share",
        &inline_sweep(
            r#"{"name": "sweep-local-failure-share",
                "platform": {"preset": "cielo", "bandwidth_gbps": 40}, "tiers": 2,
                "failure_classes": [
                    {"name": "node", "share": 0.5, "severity": 1},
                    {"name": "system", "share": 0.5, "severity": "system"}
                ],
                "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "local_failure_share", "values": [0, 0.5]}}"#,
        ),
    );
}

#[test]
fn golden_sweep_interference() {
    check_golden_scenario(
        "sweep_interference",
        &inline_sweep(
            r#"{"name": "sweep-interference",
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 2, "samples": 2, "seed": 1,
                "sweep": {"axis": "interference", "values": ["linear", "degraded:0.5"]}}"#,
        ),
    );
}
