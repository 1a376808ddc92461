//! One way to vary a scenario: an [`Axis`] names a scenario field and
//! lists the values it takes.
//!
//! A campaign suite's `grid` crosses several axes ([`crate::campaign`]);
//! a sweep (`"sweep": {"axis": ..., "values": [...]}` in a scenario) runs
//! the strategy roster at every value of one axis
//! ([`crate::experiments`]). Both build each point's [`Scenario`] with
//! [`Axis::apply`], so a grid point, a sweep point and a plain `run` at
//! the same operating point compile to the same configuration.

use crate::experiments::local_failure_mix;
use crate::json::Json;
use crate::scenario::{Scenario, ScenarioError, WorkloadSource, MAX_TIER_DEPTH};
use crate::sim::{FailureModel, InterferenceKind, PowerModel};
use crate::strategy::{CheckpointPolicy, Strategy};
use coopckpt_des::Duration;
use coopckpt_model::{AppClass, Bytes};

/// Every axis key: the suite `grid` keys, the sweep `"axis"` values, the
/// `sweep --axis` values, and the x-column header of sweep reports.
pub const AXIS_KEYS: [&str; 13] = [
    "strategy",
    "bandwidth_gbps",
    "mtbf_years",
    "tiers",
    "span_days",
    "samples",
    "seed",
    "local_failure_share",
    "workload",
    "weibull_shape",
    "power_ratio",
    "ckpt_mem_fraction",
    "interference",
];

/// One scenario field and the values it takes, in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Axis {
    /// Strategy spec names (the `--strategy` grammar). Grids only: a
    /// sweep already runs the whole roster at every point.
    Strategy(Vec<Strategy>),
    /// Aggregate PFS bandwidth in GB/s (paper Figure 1).
    BandwidthGbps(Vec<f64>),
    /// Node MTBF in years (paper Figure 2).
    MtbfYears(Vec<f64>),
    /// Geometric storage-hierarchy depth (0 = the paper's PFS-only
    /// platform), scaled to each point's platform.
    Tiers(Vec<usize>),
    /// Simulated span per instance, in days.
    SpanDays(Vec<f64>),
    /// Monte-Carlo instances per point.
    Samples(Vec<usize>),
    /// Base seed.
    Seed(Vec<u64>),
    /// Share of node-local failures, installed per point as the
    /// [`local_failure_mix`] `{local: x, system: 1 - x}` at the platform's
    /// unchanged total failure rate (`0` is the paper's model).
    LocalFailureShare(Vec<f64>),
    /// Workload sources: `"apex"`, or a trace path / `synthetic:...`
    /// generator spec (the scenario `workload.trace` grammar).
    Workload(Vec<String>),
    /// Weibull failure-law shape, mean-matched to the platform MTBF
    /// (shape `< 1` = infant mortality; `1` = exponential).
    WeibullShape(Vec<f64>),
    /// Checkpoint-write draw over compute draw (`ρ_ckpt / ρ_comp`): each
    /// point rescales the checkpoint and recovery draws of the scenario's
    /// power model (the Cielo preset when it has none).
    PowerRatio(Vec<f64>),
    /// Fraction of each job's memory footprint written per checkpoint
    /// (the comd-ft progress-rate study): each point replaces the
    /// workload with its classes at checkpoint volume `f × q_nodes ×
    /// mem_per_node`. Values live in `(0, 1]`.
    CkptMemFraction(Vec<f64>),
    /// PFS interference models (the `--interference` grammar: `linear`,
    /// `degraded:<a>`, `equal`; paper footnote 2).
    Interference(Vec<InterferenceKind>),
}

fn invalid(field: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid {
        field: field.to_string(),
        message: message.into(),
    }
}

/// Why `strategy` cannot be swept.
fn strategy_sweep_error() -> ScenarioError {
    invalid(
        "sweep.axis",
        "strategy is not a sweep axis: a sweep runs the whole strategy roster at every point",
    )
}

/// The error for a key outside [`AXIS_KEYS`], naming `field`.
fn unknown_key(key: &str, field: &str) -> ScenarioError {
    invalid(
        field,
        format!("unknown axis '{key}' (expected {})", AXIS_KEYS.join("|")),
    )
}

impl Axis {
    /// The axis key (one of [`AXIS_KEYS`]).
    pub fn key(&self) -> &'static str {
        match self {
            Axis::Strategy(_) => "strategy",
            Axis::BandwidthGbps(_) => "bandwidth_gbps",
            Axis::MtbfYears(_) => "mtbf_years",
            Axis::Tiers(_) => "tiers",
            Axis::SpanDays(_) => "span_days",
            Axis::Samples(_) => "samples",
            Axis::Seed(_) => "seed",
            Axis::LocalFailureShare(_) => "local_failure_share",
            Axis::Workload(_) => "workload",
            Axis::WeibullShape(_) => "weibull_shape",
            Axis::PowerRatio(_) => "power_ratio",
            Axis::CkptMemFraction(_) => "ckpt_mem_fraction",
            Axis::Interference(_) => "interference",
        }
    }

    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Strategy(v) => v.len(),
            Axis::Tiers(v) | Axis::Samples(v) => v.len(),
            Axis::Seed(v) => v.len(),
            Axis::Workload(v) => v.len(),
            Axis::Interference(v) => v.len(),
            Axis::BandwidthGbps(v)
            | Axis::MtbfYears(v)
            | Axis::SpanDays(v)
            | Axis::LocalFailureShare(v)
            | Axis::WeibullShape(v)
            | Axis::PowerRatio(v)
            | Axis::CkptMemFraction(v) => v.len(),
        }
    }

    /// True when the axis has no values (parsing rejects that, so only
    /// hand-built axes can hit this).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i` as a number, `None` on the text-valued axes (`strategy`,
    /// `workload`, `interference`).
    pub(crate) fn number(&self, i: usize) -> Option<f64> {
        match self {
            Axis::Strategy(_) | Axis::Workload(_) | Axis::Interference(_) => None,
            Axis::Tiers(v) | Axis::Samples(v) => Some(v[i] as f64),
            Axis::Seed(v) => Some(v[i] as f64),
            Axis::BandwidthGbps(v)
            | Axis::MtbfYears(v)
            | Axis::SpanDays(v)
            | Axis::LocalFailureShare(v)
            | Axis::WeibullShape(v)
            | Axis::PowerRatio(v)
            | Axis::CkptMemFraction(v) => Some(v[i]),
        }
    }

    /// The label of value `i` in auto-generated point names (numbers use
    /// Rust's shortest round-trip formatting, so `40.0` labels as `40`).
    pub(crate) fn label(&self, i: usize) -> String {
        match self {
            Axis::Strategy(v) => v[i].spec_name(),
            Axis::Workload(v) => v[i].clone(),
            Axis::Interference(v) => v[i].spec_name(),
            Axis::Seed(v) => v[i].to_string(),
            Axis::Tiers(v) | Axis::Samples(v) => v[i].to_string(),
            _ => format!("{}", self.number(i).expect("numeric axis")),
        }
    }

    /// The values as the JSON array [`Axis::parse`] reads back.
    pub fn values_json(&self) -> Json {
        Json::Arr(
            (0..self.len())
                .map(|i| match self {
                    Axis::Strategy(_) | Axis::Workload(_) | Axis::Interference(_) => {
                        Json::str(self.label(i))
                    }
                    _ => Json::Num(self.number(i).expect("numeric axis")),
                })
                .collect(),
        )
    }

    /// Parses the JSON value list of the axis named `key`, validating
    /// every value. Errors name `field`.
    pub fn parse(key: &str, values: &Json, field: &str) -> Result<Axis, ScenarioError> {
        let items = values
            .as_array()
            .ok_or_else(|| invalid(field, "expected an array of values"))?;
        if items.is_empty() {
            return Err(invalid(field, "axis must list values"));
        }
        let bad =
            |what: &str, v: &Json| invalid(field, format!("{key} values must be {what}, got {v}"));
        let floats = |ok: fn(f64) -> bool, what: &str| -> Result<Vec<f64>, ScenarioError> {
            items
                .iter()
                .map(|v| {
                    v.as_f64()
                        .filter(|&x| x.is_finite() && ok(x))
                        .ok_or_else(|| bad(what, v))
                })
                .collect()
        };
        let ints = |ok: fn(u64) -> bool, what: &str| -> Result<Vec<u64>, ScenarioError> {
            items
                .iter()
                .map(|v| v.as_u64().filter(|&k| ok(k)).ok_or_else(|| bad(what, v)))
                .collect()
        };
        let strings = |what: &str| -> Result<Vec<String>, ScenarioError> {
            items
                .iter()
                .map(|v| v.as_str().map(str::to_string).ok_or_else(|| bad(what, v)))
                .collect()
        };
        let usizes = |v: Vec<u64>| v.into_iter().map(|k| k as usize).collect();
        Ok(match key {
            "strategy" => Axis::Strategy(
                strings("strategy spec names")?
                    .iter()
                    .map(|s| s.parse().map_err(|e: String| invalid(field, e)))
                    .collect::<Result<_, _>>()?,
            ),
            "bandwidth_gbps" => Axis::BandwidthGbps(floats(|x| x > 0.0, "positive (GB/s)")?),
            "mtbf_years" => Axis::MtbfYears(floats(|x| x > 0.0, "positive (years)")?),
            "span_days" => Axis::SpanDays(floats(|x| x > 0.0, "positive (days)")?),
            "weibull_shape" => Axis::WeibullShape(floats(|x| x > 0.0, "positive")?),
            "power_ratio" => Axis::PowerRatio(floats(|x| x > 0.0, "positive")?),
            "local_failure_share" => {
                Axis::LocalFailureShare(floats(|x| (0.0..=1.0).contains(&x), "shares in [0, 1]")?)
            }
            "ckpt_mem_fraction" => {
                Axis::CkptMemFraction(floats(|x| x > 0.0 && x <= 1.0, "fractions in (0, 1]")?)
            }
            "tiers" => Axis::Tiers(usizes(ints(
                |k| k <= MAX_TIER_DEPTH as u64,
                &format!("integers in 0..={MAX_TIER_DEPTH}"),
            )?)),
            "samples" => Axis::Samples(usizes(ints(|k| k > 0, "positive integers")?)),
            "seed" => Axis::Seed(ints(|_| true, "non-negative integers")?),
            "workload" => Axis::Workload(strings(
                "workload specs (\"apex\", a trace path, or synthetic:...)",
            )?),
            "interference" => Axis::Interference(
                strings("interference specs (linear|degraded:<a>|equal)")?
                    .iter()
                    .map(|s| s.parse().map_err(|e: String| invalid(field, e)))
                    .collect::<Result<_, _>>()?,
            ),
            _ => return Err(unknown_key(key, field)),
        })
    }

    /// A sweep axis: [`Axis::parse`] of `values`, or of the axis's
    /// default values when none are given. Rejects `strategy` (a sweep
    /// runs the whole roster at every point) and keys without defaults
    /// when `values` is `None`. Errors name `sweep.axis` / `sweep.values`.
    pub fn sweep(key: &str, values: Option<&Json>) -> Result<Axis, ScenarioError> {
        if !AXIS_KEYS.contains(&key) {
            return Err(unknown_key(key, "sweep.axis"));
        }
        let defaults: &[f64] = match key {
            "strategy" => return Err(strategy_sweep_error()),
            "bandwidth_gbps" => &[40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0],
            "mtbf_years" => &[2.0, 4.0, 10.0, 20.0, 50.0],
            "tiers" => &[0.0, 1.0, 2.0, 3.0],
            "weibull_shape" => &[0.5, 0.7, 1.0, 1.5, 2.0],
            "power_ratio" => &[0.25, 0.5, 1.0, 2.0, 4.0],
            "local_failure_share" => &[0.0, 0.25, 0.5, 0.75, 0.9],
            "ckpt_mem_fraction" => &[0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0],
            _ => &[],
        };
        match values {
            Some(v) => Axis::parse(key, v, "sweep.values"),
            None if defaults.is_empty() => Err(invalid(
                "sweep.values",
                format!("axis '{key}' has no default values; list them"),
            )),
            None => Axis::parse(
                key,
                &Json::Arr(defaults.iter().map(|&v| Json::Num(v)).collect()),
                "sweep.values",
            ),
        }
    }

    /// Rejects an axis a sweep cannot vary (`strategy`; see
    /// [`Axis::sweep`]) when it was built in code rather than parsed.
    pub(crate) fn check_sweepable(&self) -> Result<(), ScenarioError> {
        match self {
            Axis::Strategy(_) => Err(strategy_sweep_error()),
            _ => Ok(()),
        }
    }

    /// Applies value `i` to a scenario. Fails only on `ckpt_mem_fraction`,
    /// whose scaling needs the resolved platform and classes and is
    /// undefined for trace workloads (their checkpoint volumes come from
    /// the trace itself).
    pub fn apply(&self, sc: Scenario, i: usize) -> Result<Scenario, ScenarioError> {
        Ok(match self {
            Axis::Strategy(v) => sc.with_strategy(v[i]),
            Axis::BandwidthGbps(v) => sc.with_bandwidth_gbps(v[i]),
            Axis::MtbfYears(v) => sc.with_mtbf_years(v[i]),
            Axis::Tiers(v) => sc.with_tier_depth(v[i]),
            Axis::SpanDays(v) => sc.with_span(Duration::from_days(v[i])),
            Axis::Samples(v) => {
                let seed = sc.seed;
                sc.with_sampling(v[i], seed)
            }
            Axis::Seed(v) => {
                let samples = sc.samples;
                sc.with_sampling(samples, v[i])
            }
            Axis::LocalFailureShare(v) => sc.with_failure_classes(local_failure_mix(v[i])),
            Axis::Workload(v) => {
                let mut sc = sc;
                sc.workload = match v[i].as_str() {
                    "apex" => WorkloadSource::Apex,
                    spec => WorkloadSource::Trace(spec.to_string()),
                };
                sc
            }
            Axis::WeibullShape(v) => sc.with_failures(FailureModel::Weibull(v[i])),
            Axis::Interference(v) => sc.with_interference(v[i]),
            Axis::PowerRatio(v) => {
                let base = sc.power.unwrap_or_else(PowerModel::cielo);
                let draw = base.compute_w * v[i];
                sc.with_power(PowerModel {
                    ckpt_w: draw,
                    recovery_w: draw,
                    ..base
                })
            }
            Axis::CkptMemFraction(v) => {
                if let WorkloadSource::Trace(_) = sc.workload {
                    return Err(invalid(
                        "ckpt_mem_fraction",
                        "ckpt_mem_fraction rescales class checkpoint volumes, which \
                         trace workloads derive from the trace itself; use an apex or \
                         classes workload for this axis",
                    ));
                }
                let platform = sc.resolve_platform()?;
                let per_node = platform.mem_per_node.as_bytes() * v[i];
                let classes = sc
                    .resolve_classes(&platform)?
                    .into_iter()
                    .map(|c| AppClass {
                        ckpt_bytes: Bytes::new(per_node * c.q_nodes as f64),
                        ..c
                    })
                    .collect();
                let mut sc = sc;
                sc.workload = WorkloadSource::Custom(classes);
                sc
            }
        })
    }

    /// The strategies a sweep over this axis runs at every point: the
    /// paper's seven, plus the level-aware `Tiered-Daly` on the axes that
    /// move the storage hierarchy or the recovery mix.
    pub(crate) fn roster(&self) -> Vec<Strategy> {
        let mut roster = Strategy::all_seven().to_vec();
        if matches!(self, Axis::Tiers(_) | Axis::LocalFailureShare(_)) {
            roster.push(Strategy::tiered(CheckpointPolicy::Daly));
        }
        roster
    }

    /// True when a sweep over this axis appends the Theorem 1 bound as a
    /// "Theoretical Model" series: on the axes the bound moves with. It
    /// prices every checkpoint and recovery at the PFS under exponential
    /// failures, so it is no lower bound across tier depths, recovery
    /// mixes or Weibull shapes, and it measures time, not energy.
    pub(crate) fn has_bound(&self) -> bool {
        matches!(
            self,
            Axis::BandwidthGbps(_) | Axis::MtbfYears(_) | Axis::CkptMemFraction(_)
        )
    }

    /// True when a sweep over this axis reports the *energy* waste ratio
    /// (every other axis reports the time waste ratio).
    pub(crate) fn energy_metric(&self) -> bool {
        matches!(self, Axis::PowerRatio(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    #[test]
    fn every_key_parses_and_round_trips_through_json() {
        for key in AXIS_KEYS {
            let values = match key {
                "strategy" => Json::Arr(vec![Json::str("least-waste"), Json::str("tiered")]),
                "workload" => Json::Arr(vec![Json::str("apex")]),
                "interference" => Json::Arr(vec![Json::str("degraded:0.5"), Json::str("equal")]),
                _ => arr(&[1.0]),
            };
            let axis = Axis::parse(key, &values, "grid").unwrap();
            assert_eq!(axis.key(), key);
            assert_eq!(Axis::parse(key, &axis.values_json(), "grid").unwrap(), axis);
        }
    }

    #[test]
    fn unknown_keys_list_every_valid_key() {
        let e = Axis::parse("altitude", &arr(&[1.0]), "grid.altitude").unwrap_err();
        let text = e.to_string();
        assert!(text.contains("grid.altitude"), "{text}");
        for key in AXIS_KEYS {
            assert!(text.contains(key), "{text}");
        }
        // The old kebab spellings are not aliases.
        assert!(Axis::sweep("bandwidth", None).is_err());
        assert!(Axis::sweep("weibull-shape", None).is_err());
    }

    #[test]
    fn out_of_range_values_are_typed_errors_naming_the_axis() {
        for (key, v) in [
            ("bandwidth_gbps", -40.0),
            ("mtbf_years", 0.0),
            ("span_days", -1.0),
            ("weibull_shape", 0.0),
            ("power_ratio", -1.0),
            ("local_failure_share", 1.5),
            ("ckpt_mem_fraction", 0.0),
            ("tiers", 1.5),
            ("tiers", (MAX_TIER_DEPTH + 1) as f64),
            ("samples", 0.0),
            ("seed", -1.0),
        ] {
            let e = Axis::sweep(key, Some(&arr(&[v]))).unwrap_err();
            let text = e.to_string();
            assert!(
                text.contains("sweep.values") && text.contains(key),
                "{text}"
            );
        }
        let bad = Json::Arr(vec![Json::str("degraded:-1")]);
        let e = Axis::parse("interference", &bad, "grid.interference").unwrap_err();
        let text = e.to_string();
        assert!(
            text.contains("grid.interference") && text.contains("non-negative"),
            "{text}"
        );
    }

    #[test]
    fn sweeps_reject_strategy_and_fill_defaults() {
        let e = Axis::sweep("strategy", None).unwrap_err();
        assert!(e.to_string().contains("roster"), "{e}");
        assert_eq!(
            Axis::sweep("mtbf_years", None).unwrap(),
            Axis::MtbfYears(vec![2.0, 4.0, 10.0, 20.0, 50.0])
        );
        let e = Axis::sweep("seed", None).unwrap_err();
        assert!(e.to_string().contains("no default values"), "{e}");
        assert_eq!(
            Axis::sweep("seed", Some(&arr(&[3.0]))).unwrap(),
            Axis::Seed(vec![3])
        );
    }

    #[test]
    fn ckpt_mem_fraction_rewrites_the_workload_and_rejects_traces() {
        let sc = Axis::CkptMemFraction(vec![0.5])
            .apply(Scenario::default(), 0)
            .unwrap();
        let platform = sc.resolve_platform().unwrap();
        let WorkloadSource::Custom(classes) = &sc.workload else {
            panic!("custom classes expected");
        };
        for c in classes {
            let full = platform.mem_per_node.as_bytes() * c.q_nodes as f64;
            assert_eq!(c.ckpt_bytes.as_bytes(), full * 0.5);
        }
        let trace = Scenario {
            workload: WorkloadSource::Trace("synthetic:jobs=10,seed=1".into()),
            ..Scenario::default()
        };
        let e = Axis::CkptMemFraction(vec![0.5])
            .apply(trace, 0)
            .unwrap_err();
        assert!(e.to_string().contains("trace"), "{e}");
    }

    #[test]
    fn per_axis_sweep_facts() {
        let bw = Axis::BandwidthGbps(vec![40.0]);
        assert!(bw.has_bound() && !bw.energy_metric());
        assert_eq!(bw.roster().len(), 7);
        let tiers = Axis::Tiers(vec![0]);
        assert!(!tiers.has_bound());
        assert_eq!(tiers.roster().len(), 8);
        assert_eq!(Axis::LocalFailureShare(vec![0.0]).roster().len(), 8);
        assert!(Axis::PowerRatio(vec![1.0]).energy_metric());
        assert!(Axis::CkptMemFraction(vec![1.0]).has_bound());
        let interference = Axis::Interference(vec![InterferenceKind::Equal]);
        assert!(!interference.has_bound() && !interference.energy_metric());
        assert_eq!(interference.roster().len(), 7);
    }
}
