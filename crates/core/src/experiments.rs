//! Running scenarios, and the paper's figure experiments.
//!
//! * [`run_scenario`] — executes a [`Scenario`] end to end: one operating
//!   point, or a sweep that runs the strategy roster at every value of
//!   one [`Axis`] (Figure 1 sweeps `bandwidth_gbps`, Figure 2
//!   `mtbf_years`) and adds the Theorem 1 bound where it applies.
//! * [`min_bandwidth_for_efficiency`] — Figure 3: the smallest bandwidth
//!   reaching a target efficiency (80 % in the paper), per strategy, found
//!   by bisection over the bandwidth axis.

use crate::axis::Axis;
use crate::montecarlo::{run_many, run_many_by, MonteCarloConfig, OpPointCache};
use crate::report::{candlestick_cells, Cell, Report, CANDLESTICK_COLUMNS};
use crate::scenario::{Scenario, ScenarioError};
use crate::sim::{EnergySummary, FailureClass, SimConfig, SimResult};
use crate::strategy::Strategy;
use coopckpt_model::{AppClass, Bandwidth, Platform};
use coopckpt_stats::{Candlestick, Category, ProjectLedger, WasteLedger};
use coopckpt_theory::{lower_bound, ClassParams};

/// The two-class mix the `local_failure_share` axis installs at share
/// `x`: node-local failures (severity 1 — the victim's node-local copy
/// dies with its node; every shared tier survives) carrying `x` of the
/// platform failure rate, system failures the rest. `x = 0` is exactly
/// the paper's single-class model.
pub fn local_failure_mix(local_share: f64) -> Vec<FailureClass> {
    vec![
        FailureClass::new("local", local_share, 1),
        FailureClass::system("system", 1.0 - local_share),
    ]
}

/// Appends the `sweep` section: one row per `(x, strategy)` with waste
/// candlesticks, for every strategy of [`Axis::roster`] at every value of
/// `axis`, plus a "Theoretical Model" row per value where
/// [`Axis::has_bound`]. Each point is `base` with the value applied by
/// [`Axis::apply`] and compiled once; every point is validated before any
/// of them runs. Points run uncached: they are internal configs no caller
/// re-requests.
fn sweep_section(report: &mut Report, base: &Scenario, axis: &Axis) -> Result<(), ScenarioError> {
    axis.check_sweepable()?;
    let mut base = base.clone();
    base.sweep = None;
    if !axis.energy_metric() {
        base.power = None;
    }
    let points = (0..axis.len())
        .map(|i| {
            let sc = axis.apply(base.clone(), i)?;
            Ok((sc.into_config()?, sc.mc()))
        })
        .collect::<Result<Vec<(SimConfig, MonteCarloConfig)>, ScenarioError>>()?;
    let section = report.section(
        "sweep",
        [axis.key(), "series"]
            .into_iter()
            .chain(CANDLESTICK_COLUMNS),
    );
    for (i, (config, mc)) in points.iter().enumerate() {
        let x = match axis.number(i) {
            Some(value) => Cell::Float {
                value,
                precision: if value.fract() == 0.0 { 0 } else { 2 },
            },
            None => Cell::text(axis.label(i)),
        };
        for strategy in axis.roster() {
            let cfg = SimConfig {
                strategy,
                ..config.clone()
            };
            let samples = if axis.energy_metric() {
                run_many_by(&cfg, mc, |r| {
                    r.energy
                        .as_ref()
                        .expect("power configured for every point")
                        .energy_waste_ratio
                })
            } else {
                run_many(&cfg, mc)
            };
            section.row(
                [x.clone(), Cell::text(strategy.name())]
                    .into_iter()
                    .chain(candlestick_cells(&samples.candlestick())),
            );
        }
        if axis.has_bound() {
            let params: Vec<ClassParams> = config
                .classes
                .iter()
                .map(|c| ClassParams::from_app_class(c, &config.platform))
                .collect();
            let waste = lower_bound(&config.platform, &params).waste;
            section.row(
                [x, Cell::text("Theoretical Model")]
                    .into_iter()
                    .chain(candlestick_cells(&Candlestick::from_samples(&[waste]))),
            );
        }
    }
    Ok(())
}

/// Runs a [`Scenario`] end to end and returns the unified [`Report`]:
///
/// * without a sweep — `samples` Monte-Carlo instances of the scenario's
///   strategy, reported as waste candlesticks plus utilization and
///   counter summaries;
/// * with a sweep — the axis's strategy roster at every swept value, in
///   one `sweep` section: the paper's seven strategies (plus Tiered-Daly
///   on `tiers` and `local_failure_share`), the Theorem 1 bound on
///   `bandwidth_gbps`, `mtbf_years` and `ckpt_mem_fraction`, and the
///   energy waste ratio instead of the time waste ratio on `power_ratio`.
///
/// This is the body of one campaign point (the CLI's `run` and `sweep`
/// execute it through [`crate::campaign::run_suite_with`]); it records
/// telemetry counters but never adds them to the report.
pub fn run_scenario(scenario: &Scenario) -> Result<Report, ScenarioError> {
    run_scenario_with_cache(scenario, OpPointCache::global())
}

/// [`run_scenario`] against an explicit operating-point cache.
///
/// Single-point runs fetch their Monte-Carlo instances through `cache`,
/// so scenarios sharing an operating point (same platform, strategy,
/// span, sampling, ...) compute it once per process — the campaign
/// runner's work-sharing path, also used by the heavyweight test suites.
/// Sweeps execute uncached: each sweep point is an internal config the
/// caller never re-requests.
pub fn run_scenario_with_cache(
    scenario: &Scenario,
    cache: &OpPointCache,
) -> Result<Report, ScenarioError> {
    if scenario.samples == 0 {
        // Caught here (not just in JSON parsing) so flag-built scenarios
        // error cleanly instead of tripping the thread pool's assert.
        return Err(ScenarioError::Invalid {
            field: "samples".to_string(),
            message: "at least one sample required".to_string(),
        });
    }
    run_compiled_scenario(scenario, &scenario.into_config()?, cache)
}

/// [`run_scenario_with_cache`] for a scenario already compiled to
/// `config`: the campaign runner compiles every point once to validate
/// it and hands that config here, so a job-log workload is scanned once.
pub(crate) fn run_compiled_scenario(
    scenario: &Scenario,
    config: &SimConfig,
    cache: &OpPointCache,
) -> Result<Report, ScenarioError> {
    let command = if scenario.sweep.is_some() {
        "sweep"
    } else {
        "run"
    };
    let mut report = Report::new(command, Some(scenario.clone()));
    if let Some(name) = &scenario.name {
        report.note(format!("scenario: {name}"));
    }
    report.note(config.platform.to_string());

    match &scenario.sweep {
        Some(axis) => {
            if config.power.is_some() && !axis.energy_metric() {
                // Time-metric sweeps have no column to report energy in;
                // don't silently pay per-event metering for numbers that
                // would be discarded — the sweep drops the meter; say so.
                report.note(
                    "power model ignored: sweeps report energy only on the \
                     power-ratio axis (single-point runs get energy sections)",
                );
            }
            if let Axis::LocalFailureShare(_) = axis {
                if config.tiers.is_empty() {
                    // The sweep still runs (it degenerates validly), but
                    // a flat curve with no explanation reads like a bug.
                    report.note(
                        "local-failure-share sweep over a PFS-only platform: \
                         without storage tiers no retained copy can serve a \
                         restore, so every point recovers from the PFS \
                         (configure tiers >= 2 to see the effect)",
                    );
                }
                if !config.failure_classes.is_empty() {
                    // The axis owns the mix: each point installs
                    // {local: x, system: 1-x}. Don't silently drop a
                    // user-configured mix.
                    report.note(
                        "configured failure_classes ignored: the \
                         local-failure-share axis installs its own \
                         {local, system} two-class mix at every point",
                    );
                }
            }
            sweep_section(&mut report, scenario, axis)?;
        }
        None => {
            let results = cache.run_all(config, &scenario.mc());
            let metric = |f: fn(&SimResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
            let waste = Candlestick::from_samples(&metric(|r| r.waste_ratio));
            report
                .section("waste", ["strategy"].into_iter().chain(CANDLESTICK_COLUMNS))
                .row(
                    [Cell::text(config.strategy.name())]
                        .into_iter()
                        .chain(candlestick_cells(&waste)),
                );
            let summary = report.section("summary", ["metric", "mean", "min", "max"]);
            for (label, values, precision) in [
                ("utilization", metric(|r| r.utilization), 4),
                ("efficiency", metric(|r| r.efficiency), 4),
                (
                    "checkpoints_committed",
                    metric(|r| r.checkpoints_committed as f64),
                    1,
                ),
                ("failures_total", metric(|r| r.failures_total as f64), 1),
                (
                    "failures_hitting_jobs",
                    metric(|r| r.failures_hitting_jobs as f64),
                    1,
                ),
                ("jobs_completed", metric(|r| r.jobs_completed as f64), 1),
                ("restarts", metric(|r| r.restarts as f64), 1),
                ("tier_restores", metric(|r| r.tier_restores as f64), 1),
            ] {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                summary.row([
                    Cell::text(label),
                    Cell::float(mean, precision),
                    Cell::float(min, precision),
                    Cell::float(max, precision),
                ]);
            }
            energy_sections(&mut report, &results[..]);
            projects_section(&mut report, &results[..]);
        }
    }
    Ok(report)
}

/// Appends the `projects` section when the instances carried per-project
/// accounting (trace-driven runs; a no-op otherwise). Ledgers are merged
/// across the Monte-Carlo instances; the closing `TOTAL` row is
/// [`ProjectLedger::totals`] — the in-order fold of the project rows —
/// so the per-project rows sum to it exactly, bit for bit.
fn projects_section(report: &mut Report, results: &[SimResult]) {
    let mut merged: Option<ProjectLedger> = None;
    for r in results {
        if let Some(p) = &r.projects {
            match &mut merged {
                Some(m) => m.merge(p),
                None => merged = Some(p.clone()),
            }
        }
    }
    let Some(merged) = merged else { return };
    const NH: f64 = 3600.0;
    let cells = |l: &WasteLedger| {
        [
            Cell::float((l.useful() + l.wasted()) / NH, 1),
            Cell::float(l.useful() / NH, 1),
            Cell::float(l.get(Category::CkptCommit) / NH, 1),
            Cell::float(l.get(Category::LostWork) / NH, 1),
            Cell::float(l.waste_ratio(), 4),
        ]
    };
    let section = report.section(
        "projects",
        [
            "project",
            "node_hours",
            "useful_nh",
            "ckpt_nh",
            "lost_nh",
            "waste_ratio",
        ],
    );
    for (name, ledger) in merged.iter() {
        section.row(
            [Cell::text(name.to_string())]
                .into_iter()
                .chain(cells(ledger)),
        );
    }
    section.row(
        [Cell::text("TOTAL")]
            .into_iter()
            .chain(cells(&merged.totals())),
    );
}

/// Appends the `energy` and `energy_breakdown` sections when the instances
/// carried energy metering (no-op otherwise). Totals are reported in
/// gigajoules; the waste-ratio candlestick mirrors the time-waste row.
fn energy_sections(report: &mut Report, results: &[SimResult]) {
    let energies: Vec<&EnergySummary> = results.iter().filter_map(|r| r.energy.as_ref()).collect();
    if energies.is_empty() {
        return;
    }
    const GJ: f64 = 1e9;
    let ratios: Vec<f64> = energies.iter().map(|e| e.energy_waste_ratio).collect();
    let stats = Candlestick::from_samples(&ratios);
    report
        .section("energy", ["metric"].into_iter().chain(CANDLESTICK_COLUMNS))
        .row(
            [Cell::text("energy_waste_ratio")]
                .into_iter()
                .chain(candlestick_cells(&stats)),
        );
    let totals = report.section("energy_totals", ["metric", "mean_gj", "min_gj", "max_gj"]);
    type Pick = fn(&EnergySummary) -> f64;
    for (label, pick) in [
        ("useful", (|e: &EnergySummary| e.useful_joules) as Pick),
        ("wasted", |e| e.wasted_joules),
        ("platform_overhead", |e| e.platform_overhead_joules),
        ("total", |e| e.total_joules),
    ] {
        let values: Vec<f64> = energies.iter().map(|e| pick(e)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        totals.row([
            Cell::text(label),
            Cell::float(mean / GJ, 3),
            Cell::float(min / GJ, 3),
            Cell::float(max / GJ, 3),
        ]);
    }
    let mean_total: f64 =
        energies.iter().map(|e| e.total_joules).sum::<f64>() / energies.len() as f64;
    let breakdown = report.section("energy_breakdown", ["phase", "mean_gj", "share_pct"]);
    for (i, (label, _)) in energies[0].breakdown.iter().enumerate() {
        let mean: f64 =
            energies.iter().map(|e| e.breakdown[i].1).sum::<f64>() / energies.len() as f64;
        breakdown.row([
            Cell::text(*label),
            Cell::float(mean / GJ, 3),
            Cell::float(100.0 * mean / mean_total.max(f64::MIN_POSITIVE), 2),
        ]);
    }
}

/// Figure 3: the minimum aggregate bandwidth (GB/s) at which `strategy`
/// reaches `target_efficiency` (mean over the Monte-Carlo instances), found
/// by bisection on a log-bandwidth grid within `[lo_gbps, hi_gbps]`.
///
/// Returns `None` when even `hi_gbps` misses the target.
pub fn min_bandwidth_for_efficiency(
    template: &SimConfig,
    strategy: Strategy,
    target_efficiency: f64,
    lo_gbps: f64,
    hi_gbps: f64,
    iterations: u32,
    mc: &MonteCarloConfig,
) -> Option<f64> {
    assert!(
        (0.0..1.0).contains(&target_efficiency),
        "target efficiency must be in (0, 1)"
    );
    assert!(
        lo_gbps > 0.0 && lo_gbps < hi_gbps,
        "invalid bandwidth range"
    );
    let mean_eff = |gbps: f64| -> f64 {
        let cfg = SimConfig {
            platform: template.platform.with_bandwidth(Bandwidth::from_gbps(gbps)),
            strategy,
            ..template.clone()
        };
        1.0 - run_many(&cfg, mc).mean()
    };
    if mean_eff(hi_gbps) < target_efficiency {
        return None;
    }
    if mean_eff(lo_gbps) >= target_efficiency {
        return Some(lo_gbps);
    }
    // Efficiency is monotone (noisy) in bandwidth: bisect on log scale.
    let (mut lo, mut hi) = (lo_gbps.ln(), hi_gbps.ln());
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if mean_eff(mid.exp()) >= target_efficiency {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.exp())
}

/// The theoretical counterpart of [`min_bandwidth_for_efficiency`]: the
/// smallest bandwidth at which the Section 4 lower bound reaches the target
/// efficiency (no simulation, pure bisection on the analytic model).
pub fn theory_min_bandwidth(
    platform: &Platform,
    classes: &[AppClass],
    target_efficiency: f64,
    lo_gbps: f64,
    hi_gbps: f64,
) -> Option<f64> {
    let eff = |gbps: f64| {
        let p = platform.with_bandwidth(Bandwidth::from_gbps(gbps));
        let params: Vec<ClassParams> = classes
            .iter()
            .map(|c| ClassParams::from_app_class(c, &p))
            .collect();
        lower_bound(&p, &params).efficiency()
    };
    if eff(hi_gbps) < target_efficiency {
        return None;
    }
    if eff(lo_gbps) >= target_efficiency {
        return Some(lo_gbps);
    }
    let (mut lo, mut hi) = (lo_gbps.ln(), hi_gbps.ln());
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if eff(mid.exp()) >= target_efficiency {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{geometric_tiers, FailureModel, PowerModel};
    use coopckpt_des::Duration;
    use coopckpt_model::Bytes;

    fn template() -> SimConfig {
        let platform = Platform::new(
            "tiny",
            32,
            8,
            Bytes::from_gb(8.0),
            Bandwidth::from_gbps(4.0),
            Duration::from_years(3.0),
        )
        .unwrap();
        let classes = vec![AppClass {
            name: "A".into(),
            q_nodes: 8,
            walltime: Duration::from_hours(12.0),
            resource_share: 1.0,
            input_bytes: Bytes::from_gb(10.0),
            output_bytes: Bytes::from_gb(50.0),
            ckpt_bytes: Bytes::from_gb(64.0),
            regular_io_bytes: Bytes::ZERO,
        }];
        SimConfig::new(platform, classes, Strategy::least_waste())
            .with_span(Duration::from_days(2.0))
    }

    /// A sweep of `axis` over `base` at 2 samples.
    fn sweep_of(base: &SimConfig, axis: Axis) -> Scenario {
        let mut sc = Scenario::from_config(base).with_sampling(2, 1);
        sc.sweep = Some(axis);
        sc
    }

    /// The `(x, series, mean)` rows of a sweep report.
    fn sweep_rows(sc: &Scenario) -> Vec<(f64, String, f64)> {
        let report = run_scenario(sc).unwrap();
        let section = report.sections.iter().find(|s| s.name == "sweep").unwrap();
        section
            .rows
            .iter()
            .map(|row| match (&row[0], &row[1], &row[2]) {
                (Cell::Float { value: x, .. }, Cell::Text(series), Cell::Float { value, .. }) => {
                    (*x, series.clone(), *value)
                }
                other => panic!("unexpected sweep row {other:?}"),
            })
            .collect()
    }

    fn means_of(rows: &[(f64, String, f64)], series: &str) -> Vec<f64> {
        rows.iter().filter(|r| r.1 == series).map(|r| r.2).collect()
    }

    #[test]
    fn bandwidth_sweep_produces_all_series() {
        let rows = sweep_rows(&sweep_of(&template(), Axis::BandwidthGbps(vec![2.0, 8.0])));
        // Two x-values × (seven strategies + bound).
        assert_eq!(rows.len(), 16);
        let bounds = means_of(&rows, "Theoretical Model");
        assert_eq!(bounds.len(), 2);
        // The bound improves (or stays) with more bandwidth.
        assert!(bounds[1] <= bounds[0] + 1e-12);
    }

    #[test]
    fn mtbf_sweep_produces_all_series() {
        let rows = sweep_rows(&sweep_of(&template(), Axis::MtbfYears(vec![2.0, 20.0])));
        assert_eq!(rows.len(), 16);
        // Theory bound falls with reliability.
        let bounds = means_of(&rows, "Theoretical Model");
        assert!(bounds[1] < bounds[0]);
    }

    #[test]
    fn tier_count_sweep_produces_all_series() {
        let rows = sweep_rows(&sweep_of(&template(), Axis::Tiers(vec![0, 3])));
        // Two x-values × (seven strategies + Tiered-Daly), no bound.
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.1 != "Theoretical Model"));
        assert_eq!(means_of(&rows, "Tiered-Daly").len(), 2);
        // Deeper hierarchy at the same PFS bandwidth must not hurt the
        // blocking strategy.
        let ordered = means_of(&rows, "Ordered-Daly");
        assert!(ordered[1] <= ordered[0] + 1e-9);
    }

    #[test]
    fn weibull_shape_sweep_produces_all_series() {
        let t = template();
        let sc = sweep_of(&t, Axis::WeibullShape(vec![0.7, 1.0]));
        let rows = sweep_rows(&sc);
        assert_eq!(rows.len(), 14);
        assert!(rows.iter().all(|r| r.1 != "Theoretical Model"));
        // Shape 1.0 is the mean-matched exponential law. The sampled
        // instants differ from the exponential sampler's by ulps (the
        // mean-matching scale divides by a Lanczos Γ(2) ≈ 1), so the
        // runs are not bitwise equal — but a broken mean-match would
        // shift the failure rate and move the waste by far more than
        // this tolerance.
        let expo = run_many(
            &SimConfig {
                failures: FailureModel::Exponential,
                ..t
            },
            &sc.mc(),
        )
        .candlestick()
        .mean;
        let weibull_one = means_of(&rows, "Least-Waste")[1];
        assert!(
            (weibull_one - expo).abs() < 0.02,
            "Weibull(1.0) waste {weibull_one} strayed from exponential waste {expo}"
        );
    }

    #[test]
    fn local_failure_share_sweep_produces_all_series() {
        let t = SimConfig {
            tiers: geometric_tiers(&template().platform, 3),
            ..template()
        };
        let rows = sweep_rows(&sweep_of(&t, Axis::LocalFailureShare(vec![0.0, 0.9])));
        assert_eq!(rows.len(), 16);
        assert!(rows.iter().all(|r| r.1 != "Theoretical Model"));
        // Mostly-local failures restore from fast tiers: waste must not
        // grow versus the all-system baseline.
        let lw = means_of(&rows, "Least-Waste");
        assert!(
            lw[1] <= lw[0] + 1e-9,
            "local restores should not raise waste: {} vs {}",
            lw[1],
            lw[0]
        );
    }

    #[test]
    fn tierless_local_share_sweep_carries_a_note() {
        let sc = sweep_of(&template(), Axis::LocalFailureShare(vec![0.0, 0.5]));
        let report = run_scenario(&sc.with_sampling(1, 1)).unwrap();
        assert!(
            report.notes.iter().any(|n| n.contains("PFS-only platform")),
            "{:?}",
            report.notes
        );
        // With tiers configured, no such note.
        let tiered = SimConfig {
            tiers: geometric_tiers(&template().platform, 2),
            ..template()
        };
        let sc = sweep_of(&tiered, Axis::LocalFailureShare(vec![0.5]));
        let report = run_scenario(&sc.with_sampling(1, 1)).unwrap();
        assert!(!report.notes.iter().any(|n| n.contains("PFS-only platform")));
    }

    #[test]
    fn local_share_sweep_notes_a_replaced_class_mix() {
        // The axis installs its own two-class mix per point; a
        // user-configured mix must not be dropped silently.
        let tiered = SimConfig {
            tiers: geometric_tiers(&template().platform, 2),
            failure_classes: local_failure_mix(0.3),
            ..template()
        };
        let sc = sweep_of(&tiered, Axis::LocalFailureShare(vec![0.5]));
        let report = run_scenario(&sc.with_sampling(1, 1)).unwrap();
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("failure_classes ignored")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn local_failure_mix_shapes() {
        let mix = local_failure_mix(0.7);
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].severity, 1);
        assert!((mix[0].share - 0.7).abs() < 1e-12);
        assert!(mix[1].is_system());
        // The endpoints are valid mixes too.
        coopckpt_failure::validate_classes(&local_failure_mix(0.0)).unwrap();
        coopckpt_failure::validate_classes(&local_failure_mix(1.0)).unwrap();
    }

    #[test]
    fn trace_scenarios_report_a_projects_section() {
        let mut sc = Scenario::from_config(&template()).with_sampling(2, 1);
        sc.workload = crate::scenario::WorkloadSource::Trace(
            "synthetic:jobs=60,seed=5,projects=3,max_nodes=8,mean_walltime_hours=1,\
             max_walltime_hours=3,mean_interarrival_secs=900,gb_per_node=2"
                .into(),
        );
        let report = run_scenario(&sc).unwrap();
        let projects = report
            .sections
            .iter()
            .find(|s| s.name == "projects")
            .expect("trace runs carry a projects section");
        // At least one project row plus the TOTAL fold.
        assert!(projects.rows.len() >= 2, "{:?}", projects.rows);
        match &projects.rows.last().unwrap()[0] {
            Cell::Text(s) => assert_eq!(s, "TOTAL"),
            other => panic!("expected the TOTAL row, got {other:?}"),
        }
        // Batch runs never emit one.
        let sc = Scenario::from_config(&template()).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        assert!(report.sections.iter().all(|s| s.name != "projects"));
    }

    #[test]
    fn run_scenario_single_point_report() {
        let t = template();
        let mut sc = Scenario::from_config(&t).with_sampling(2, 1);
        sc.name = Some("unit".to_string());
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.command, "run");
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.sections[0].name, "waste");
        assert_eq!(report.sections[1].name, "summary");
        assert_eq!(report.sections[0].rows.len(), 1);
        // The waste row matches a direct Monte-Carlo run at equal seeds.
        let direct = run_many(&t, &sc.mc()).candlestick();
        match &report.sections[0].rows[0][1] {
            Cell::Float { value, .. } => assert_eq!(*value, direct.mean),
            other => panic!("expected a float mean, got {other:?}"),
        }
        assert!(report.notes.iter().any(|n| n.contains("unit")));
    }

    #[test]
    fn theory_min_bandwidth_brackets() {
        let t = template();
        // The analytic bound reaches 80 % efficiency somewhere in range.
        let bw = theory_min_bandwidth(&t.platform, &t.classes, 0.8, 0.1, 1000.0)
            .expect("bound must reach 80% by 1000 GB/s");
        assert!((0.1..=1000.0).contains(&bw));
        // And a stricter target needs at least as much bandwidth.
        let bw95 = theory_min_bandwidth(&t.platform, &t.classes, 0.95, 0.1, 1000.0);
        if let Some(b) = bw95 {
            assert!(b >= bw * 0.99, "95% target ({b}) below 80% target ({bw})");
        }
    }

    #[test]
    fn min_bandwidth_search_is_consistent() {
        let t = template();
        let mc = MonteCarloConfig::new(1);
        let found =
            min_bandwidth_for_efficiency(&t, Strategy::least_waste(), 0.5, 0.25, 64.0, 6, &mc);
        let bw = found.expect("50% efficiency must be reachable at 64 GB/s");
        assert!((0.25..=64.0).contains(&bw));
    }
    #[test]
    fn power_ratio_sweep_reports_energy_waste() {
        let rows = sweep_rows(&sweep_of(&template(), Axis::PowerRatio(vec![0.25, 4.0])));
        assert_eq!(rows.len(), 14);
        // Pricier checkpoints must not lower the energy waste at a fixed
        // (time-optimal) period.
        let lw = means_of(&rows, "Least-Waste");
        assert!(lw[1] > lw[0]);
        for (_, _, mean) in &rows {
            assert!(*mean > 0.0 && *mean < 1.0);
        }
    }

    #[test]
    fn ckpt_mem_fraction_sweep_produces_all_series() {
        let rows = sweep_rows(&sweep_of(
            &template(),
            Axis::CkptMemFraction(vec![0.1, 1.0]),
        ));
        // Two x-values × (seven strategies + the bound).
        assert_eq!(rows.len(), 16);
        // Smaller checkpoints cannot raise the analytic bound.
        let bounds = means_of(&rows, "Theoretical Model");
        assert!(bounds[0] <= bounds[1] + 1e-12);
    }

    #[test]
    fn ckpt_mem_fraction_sweep_rejects_trace_workloads() {
        let mut sc = sweep_of(&template(), Axis::CkptMemFraction(vec![0.5]));
        sc.workload = crate::scenario::WorkloadSource::Trace(
            "synthetic:jobs=20,seed=1,projects=2,max_nodes=8,mean_walltime_hours=1,\
             max_walltime_hours=2,mean_interarrival_secs=600,gb_per_node=2"
                .into(),
        );
        let e = run_scenario(&sc).unwrap_err();
        assert!(e.to_string().contains("trace"), "{e}");
    }

    #[test]
    fn sweeps_validate_every_point_before_running() {
        // The second point's span draws far too many failures: the whole
        // sweep fails up front with the span error.
        let sc = sweep_of(&template(), Axis::SpanDays(vec![1.0, 1e12]));
        let e = run_scenario(&sc).unwrap_err();
        assert!(e.to_string().contains("span_days"), "{e}");
        // A hand-built strategy sweep is rejected like a parsed one.
        let sc = sweep_of(&template(), Axis::Strategy(vec![Strategy::least_waste()]));
        let e = run_scenario(&sc).unwrap_err();
        assert!(e.to_string().contains("sweep.axis"), "{e}");
    }

    #[test]
    fn run_scenario_with_power_adds_energy_sections() {
        let t = template().with_power(PowerModel::cielo());
        let sc = Scenario::from_config(&t).with_sampling(2, 1);
        let report = run_scenario(&sc).unwrap();
        let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "waste",
                "summary",
                "energy",
                "energy_totals",
                "energy_breakdown"
            ]
        );
        let breakdown = &report.sections[4];
        assert_eq!(breakdown.rows.len(), crate::sim::Phase::ALL.len());
        // Without power, no energy sections appear.
        let sc = Scenario::from_config(&template()).with_sampling(2, 1);
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.sections.len(), 2);
    }

    #[test]
    fn time_metric_sweeps_drop_the_power_model_with_a_note() {
        let t = template().with_power(PowerModel::cielo());
        let sc = sweep_of(&t, Axis::BandwidthGbps(vec![2.0])).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("power model ignored")),
            "{:?}",
            report.notes
        );
        // The power-ratio axis keeps (and uses) the model: no such note.
        let sc = sweep_of(&t, Axis::PowerRatio(vec![1.0])).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        assert!(!report
            .notes
            .iter()
            .any(|n| n.contains("power model ignored")));
    }

    #[test]
    fn run_scenario_power_ratio_sweep() {
        let sc = sweep_of(&template(), Axis::PowerRatio(vec![0.5, 2.0])).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        let sweep = &report.sections[0];
        assert_eq!(sweep.columns[0], "power_ratio");
        // Two x-values x seven strategies, no analytic bound.
        assert_eq!(sweep.rows.len(), 2 * 7);
    }

    #[test]
    fn run_scenario_sweep_report() {
        let sc = sweep_of(&template(), Axis::BandwidthGbps(vec![2.0, 8.0])).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.command, "sweep");
        assert_eq!(report.sections.len(), 1);
        let sweep = &report.sections[0];
        assert_eq!(sweep.name, "sweep");
        // Two x-values × (seven strategies + the analytic bound).
        assert_eq!(sweep.rows.len(), 2 * 8);
        assert_eq!(sweep.columns[0], "bandwidth_gbps");
    }

    #[test]
    fn fractional_tier_sweep_is_rejected() {
        let e = Scenario::parse(r#"{"sweep": {"axis": "tiers", "values": [0.5]}}"#).unwrap_err();
        assert!(e.to_string().contains("sweep.values"), "{e}");
    }
}
