//! The correctness gate behind `failed_frac`.
//!
//! A point fails when its campaign returned an error or panicked, when its
//! merged output differs from the reference at tolerance 0 under
//! `compare_campaigns`, or when it is a Least-Waste point whose mean waste
//! stops tracking the Theorem-1 lower bound from above. For the default seed the
//! whole merged output must also match a recorded digest: simulated
//! statistics are a pure function of the inputs, so a change that only
//! makes the simulator faster must leave every byte of them unchanged.

use coopckpt::campaign::compare_campaigns;
use coopckpt::json::Json;
use coopckpt::report::Cell;
use coopckpt::{Campaign, Scenario};
use coopckpt_theory::{lower_bound, ClassParams};
use std::collections::BTreeSet;

/// The bracket `tests/smoke.rs` and `tests/theory_vs_sim.rs` apply to
/// Least-Waste: `waste > bound × 0.85` and `waste < bound × 3 + 0.02`.
pub const BOUND_LOWER_FRAC: f64 = 0.85;
/// Upper factor of the bracket (see [`BOUND_LOWER_FRAC`]).
pub const BOUND_UPPER_FACTOR: f64 = 3.0;
/// Additive upper slack of the bracket (see [`BOUND_LOWER_FRAC`]).
pub const BOUND_UPPER_SLACK: f64 = 0.02;

/// The seed whose output digests are recorded in [`RECORDED_DIGESTS`].
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of each workload's merged JSON output for
/// [`DEFAULT_SEED`], on x86-64 Linux. A change that alters simulated
/// results on purpose re-records them; a speed-only change must not.
pub const RECORDED_DIGESTS: [(&str, &str); 3] = [
    ("strategy_grid", "81e0190f1f817a47"),
    ("exascale_big_point", "60e5d8ce56d722fb"),
    ("trace_stream", "7255a2b897aad0be"),
];

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The recorded digest of `workload`'s default-seed output.
pub fn recorded_digest(workload: &str) -> Option<&'static str> {
    RECORDED_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| *d)
}

/// Names of the points whose reports differ between `reference` and
/// `candidate` (merged campaign documents) at tolerance 0. A point missing
/// from either side counts as differing.
pub fn differing_points(reference: &Json, candidate: &Json) -> Result<BTreeSet<String>, String> {
    let outcome = compare_campaigns(reference, candidate, 0.0, "reference", "candidate")
        .map_err(|e| e.to_string())?;
    let diff = outcome
        .report
        .sections
        .iter()
        .find(|s| s.name == "diff")
        .ok_or("compare report has no diff section")?;
    let points: BTreeSet<String> = diff
        .rows
        .iter()
        .map(|row| match row.first() {
            Some(Cell::Text(p)) => p.clone(),
            other => format!("{other:?}"),
        })
        .collect();
    if points.is_empty() && outcome.differences > 0 {
        return Err(format!(
            "{} differences reported without a point",
            outcome.differences
        ));
    }
    Ok(points)
}

/// A Least-Waste point set against its Theorem-1 lower bound.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// Point label.
    pub point: String,
    /// Simulated mean waste.
    pub waste: f64,
    /// Theorem-1 lower bound.
    pub bound: f64,
    /// Whether the PFS constraint binds at the bound (λ > 0).
    pub io_constrained: bool,
}

impl BoundCheck {
    /// `waste < bound × 3 + 0.02`: Least-Waste tracks the bound. This side
    /// gates `failed_frac`.
    pub fn upper_ok(&self) -> bool {
        self.waste < self.bound * BOUND_UPPER_FACTOR + BOUND_UPPER_SLACK
    }

    /// `waste > bound × 0.85`: the mean does not beat the bound materially.
    /// On the benchmark's Cielo 160 GB/s and exascale points the current
    /// simulator sits below this floor, so this side is reported with
    /// every run instead of gating it (see `README.md`).
    pub fn lower_ok(&self) -> bool {
        self.waste > self.bound * BOUND_LOWER_FRAC
    }
}

/// Sets every Least-Waste point of `campaign` (whose points are `points`,
/// in expansion order) against its Theorem-1 lower bound.
pub fn least_waste_bounds(
    points: &[Scenario],
    campaign: &Campaign,
) -> Result<Vec<BoundCheck>, String> {
    let mut out = Vec::new();
    for (sc, entry) in points.iter().zip(&campaign.entries) {
        if sc.strategy.spec_name() != "least-waste" {
            continue;
        }
        let config = sc.into_config().map_err(|e| e.to_string())?;
        let params: Vec<ClassParams> = config
            .classes
            .iter()
            .map(|c| ClassParams::from_app_class(c, &config.platform))
            .collect();
        let lb = lower_bound(&config.platform, &params);
        let waste = mean_waste(&entry.report)
            .ok_or_else(|| format!("{}: report has no waste mean", entry.label()))?;
        out.push(BoundCheck {
            point: entry.label().to_string(),
            waste,
            bound: lb.waste,
            io_constrained: lb.io_constrained(),
        });
    }
    Ok(out)
}

/// The `mean` cell of a point report's `waste` section.
fn mean_waste(report: &Json) -> Option<f64> {
    let section = report
        .get("sections")?
        .as_array()?
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("waste"))?;
    let col = section
        .get("columns")?
        .as_array()?
        .iter()
        .position(|c| c.as_str() == Some("mean"))?;
    section
        .get("rows")?
        .as_array()?
        .first()?
        .as_array()?
        .get(col)?
        .as_f64()
}
