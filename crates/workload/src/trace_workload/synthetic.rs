//! Seeded synthetic trace generation.
//!
//! `synthetic:key=value,...` describes a reproducible job log without a
//! file: node counts are log-uniform over powers of two (mass spread
//! across orders of magnitude, like production mixes), walltimes are
//! Pareto-tailed with a cap (most jobs short, a heavy tail of long ones),
//! arrivals are Poisson, and project labels are quadratically biased so a
//! few projects dominate — the shape Graziani, Lusch & Messer report for
//! the Frontier CY2024 log. Generation is a [`JobSource`]: records are
//! produced one at a time, so even a 300k-job synthetic trace never
//! materializes.

use super::{JobSource, TraceError, TraceJob};
use coopckpt_des::{Duration, Time};
use coopckpt_failure::Xoshiro256pp;
use coopckpt_model::Bytes;

/// Pareto shape for walltimes: finite mean, heavy tail.
const WALLTIME_ALPHA: f64 = 1.5;

/// Parameters of the synthetic trace grammar, all spellable as
/// `synthetic:jobs=N,seed=S,...` (unspecified keys take the defaults
/// shown on each field).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Number of jobs to emit (`jobs`, default 1000).
    pub jobs: usize,
    /// RNG seed (`seed`, default 1). Same spec ⇒ same trace, always.
    pub seed: u64,
    /// Distinct project labels `p0..p<n>` (`projects`, default 8).
    pub projects: usize,
    /// Largest node count; drawn log-uniform over the powers of two up to
    /// this, so it is rounded down to one (`max_nodes`, default 4096).
    pub max_nodes: usize,
    /// Mean walltime in hours before the cap (`mean_walltime_hours`,
    /// default 4).
    pub mean_walltime_hours: f64,
    /// Walltime cap in hours, like a center queue limit
    /// (`max_walltime_hours`, default 24).
    pub max_walltime_hours: f64,
    /// Mean interarrival gap in seconds (`mean_interarrival_secs`,
    /// default 600).
    pub mean_interarrival_secs: f64,
    /// Node memory assumed for checkpoint sizing, GB
    /// (`gb_per_node`, default 128).
    pub gb_per_node: f64,
    /// Fraction of node memory each checkpoint writes
    /// (`ckpt_frac`, default 0.5).
    pub ckpt_frac: f64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            jobs: 1000,
            seed: 1,
            projects: 8,
            max_nodes: 4096,
            mean_walltime_hours: 4.0,
            max_walltime_hours: 24.0,
            mean_interarrival_secs: 600.0,
            gb_per_node: 128.0,
            ckpt_frac: 0.5,
        }
    }
}

impl SyntheticSpec {
    /// Parses the comma-separated `key=value` grammar (the part after
    /// `synthetic:`). `context` names the full spec in error messages.
    pub fn parse(grammar: &str, context: &str) -> Result<SyntheticSpec, TraceError> {
        let mut spec = SyntheticSpec::default();
        let err = |msg: String| TraceError::new(context, 0, msg);
        for part in grammar.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| err(format!("expected key=value, got '{part}'")))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_usize = || -> Result<usize, TraceError> {
                value
                    .parse()
                    .map_err(|_| err(format!("bad value '{value}' for '{key}'")))
            };
            let parse_f64 = || -> Result<f64, TraceError> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| err(format!("bad value '{value}' for '{key}'")))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(err(format!("'{key}' must be positive, got '{value}'")));
                }
                Ok(v)
            };
            match key {
                "jobs" => spec.jobs = parse_usize()?,
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| err(format!("bad value '{value}' for 'seed'")))?
                }
                "projects" => spec.projects = parse_usize()?,
                "max_nodes" => spec.max_nodes = parse_usize()?,
                "mean_walltime_hours" => spec.mean_walltime_hours = parse_f64()?,
                "max_walltime_hours" => spec.max_walltime_hours = parse_f64()?,
                "mean_interarrival_secs" => spec.mean_interarrival_secs = parse_f64()?,
                "gb_per_node" => spec.gb_per_node = parse_f64()?,
                "ckpt_frac" => spec.ckpt_frac = parse_f64()?,
                other => {
                    return Err(err(format!(
                        "unknown synthetic key '{other}' (expected jobs, seed, projects, \
                         max_nodes, mean_walltime_hours, max_walltime_hours, \
                         mean_interarrival_secs, gb_per_node, ckpt_frac)"
                    )))
                }
            }
        }
        if spec.jobs == 0 {
            return Err(err("'jobs' must be at least 1".to_string()));
        }
        if spec.projects == 0 {
            return Err(err("'projects' must be at least 1".to_string()));
        }
        if spec.max_nodes == 0 {
            return Err(err("'max_nodes' must be at least 1".to_string()));
        }
        if spec.max_walltime_hours < spec.mean_walltime_hours {
            return Err(err(format!(
                "'max_walltime_hours' ({}) must be at least 'mean_walltime_hours' ({})",
                spec.max_walltime_hours, spec.mean_walltime_hours
            )));
        }
        Ok(spec)
    }

    /// The canonical `synthetic:...` string with every field explicit, so
    /// specs that differ only in spelled-out defaults compare equal after
    /// a round trip.
    pub fn spec_string(&self) -> String {
        format!(
            "synthetic:jobs={},seed={},projects={},max_nodes={},mean_walltime_hours={},\
             max_walltime_hours={},mean_interarrival_secs={},gb_per_node={},ckpt_frac={}",
            self.jobs,
            self.seed,
            self.projects,
            self.max_nodes,
            self.mean_walltime_hours,
            self.max_walltime_hours,
            self.mean_interarrival_secs,
            self.gb_per_node,
            self.ckpt_frac
        )
    }
}

/// The generator itself: a [`JobSource`] emitting `spec.jobs` records.
pub struct SyntheticSource {
    spec: SyntheticSpec,
    rng: Xoshiro256pp,
    emitted: usize,
    clock_secs: f64,
    /// log₂ of the largest emittable node count.
    exponents: u32,
}

impl SyntheticSource {
    /// A fresh source at the start of the trace described by `spec`.
    pub fn new(spec: SyntheticSpec) -> Self {
        let rng = Xoshiro256pp::seed_from_u64(spec.seed);
        let exponents = (spec.max_nodes as f64).log2().floor() as u32;
        SyntheticSource {
            spec,
            rng,
            emitted: 0,
            clock_secs: 0.0,
            exponents,
        }
    }
}

impl JobSource for SyntheticSource {
    fn next_job(&mut self) -> Option<Result<TraceJob, TraceError>> {
        if self.emitted == self.spec.jobs {
            return None;
        }
        self.emitted += 1;
        // Fixed draw order — part of the trace's identity: arrival gap,
        // node exponent, walltime, project.
        let u = self.rng.next_f64_open();
        self.clock_secs += -self.spec.mean_interarrival_secs * u.ln();
        let nodes = 1usize << self.rng.next_bounded(u64::from(self.exponents) + 1);
        let mean = self.spec.mean_walltime_hours * 3600.0;
        let x_min = mean * (WALLTIME_ALPHA - 1.0) / WALLTIME_ALPHA;
        let u = self.rng.next_f64_open();
        let walltime_secs =
            (x_min / u.powf(1.0 / WALLTIME_ALPHA)).min(self.spec.max_walltime_hours * 3600.0);
        let u = self.rng.next_f64();
        let project_idx =
            ((u * u * self.spec.projects as f64) as usize).min(self.spec.projects - 1);
        let ckpt = Bytes::from_gb(nodes as f64 * self.spec.gb_per_node * self.spec.ckpt_frac);
        Some(Ok(TraceJob {
            project: format!("p{project_idx}"),
            submit: Time::from_secs(self.clock_secs),
            nodes,
            walltime: Duration::from_secs(walltime_secs),
            ckpt_bytes: Some(ckpt),
            line: self.emitted,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(spec: SyntheticSpec) -> Vec<TraceJob> {
        let mut src = SyntheticSource::new(spec);
        let mut out = Vec::new();
        while let Some(j) = src.next_job() {
            out.push(j.unwrap());
        }
        out
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::parse("jobs=200,seed=42", "test").unwrap();
        let a = drain(spec.clone());
        let b = drain(spec);
        assert_eq!(a, b);
        let other = SyntheticSpec::parse("jobs=200,seed=43", "test").unwrap();
        assert_ne!(a, drain(other));
    }

    #[test]
    fn jobs_are_ordered_bounded_and_labelled() {
        let spec =
            SyntheticSpec::parse("jobs=500,seed=7,projects=3,max_nodes=256", "test").unwrap();
        let jobs = drain(spec.clone());
        assert_eq!(jobs.len(), 500);
        let mut last = Time::ZERO;
        for j in &jobs {
            assert!(j.submit >= last);
            last = j.submit;
            assert!(j.nodes >= 1 && j.nodes <= 256);
            assert!(j.nodes.is_power_of_two());
            assert!(j.walltime.is_positive());
            assert!(j.walltime.as_hours() <= spec.max_walltime_hours + 1e-9);
            assert!(j.project.starts_with('p'));
            let idx: usize = j.project[1..].parse().unwrap();
            assert!(idx < 3);
            assert!(j.ckpt_bytes.unwrap().as_gb() > 0.0);
        }
        // Heavy node tail: both extremes of the power-of-two ladder appear.
        assert!(jobs.iter().any(|j| j.nodes == 1));
        assert!(jobs.iter().any(|j| j.nodes == 256));
        // The quadratic project bias front-loads p0.
        let p0 = jobs.iter().filter(|j| j.project == "p0").count();
        assert!(p0 > 500 / 3, "p0 got {p0} of 500");
    }

    #[test]
    fn grammar_rejects_unknown_and_invalid_keys() {
        assert!(SyntheticSpec::parse("bogus=1", "test").is_err());
        assert!(SyntheticSpec::parse("jobs=0", "test").is_err());
        assert!(SyntheticSpec::parse("jobs", "test").is_err());
        assert!(SyntheticSpec::parse("mean_walltime_hours=-2", "test").is_err());
        assert!(SyntheticSpec::parse("mean_walltime_hours=30", "test").is_err());
        let spec = SyntheticSpec::parse("", "test").unwrap();
        assert_eq!(spec, SyntheticSpec::default());
    }

    #[test]
    fn spec_string_round_trips() {
        let spec = SyntheticSpec::parse("jobs=77,seed=5,ckpt_frac=0.25", "test").unwrap();
        let canon = spec.spec_string();
        let grammar = canon.strip_prefix("synthetic:").unwrap();
        assert_eq!(SyntheticSpec::parse(grammar, "test").unwrap(), spec);
    }
}
