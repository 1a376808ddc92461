//! The two kinds of run: the end-to-end pass (telemetry off) and the
//! traced pass that decomposes it layer by layer.
//!
//! Every timed campaign gets a fresh `OpPointCache` and a fresh
//! `ResultCache` directory, so it really simulates; only a resume pass
//! reuses the directory of the run it follows.

use crate::gate::{self, DEFAULT_SEED};
use crate::replay::{self, SampleTotals};
use crate::stats::{median, quantile, Metric};
use crate::workload::{Inputs, Workload};
use coopckpt::json::Json;
use coopckpt::{
    run_simulation, run_suite_with, Campaign, CampaignOptions, OpPointCache, OutputFormat,
    ResultCache, Scenario, SimConfig, Strategy, Suite,
};
use coopckpt_des::Time;
use coopckpt_failure::{FailureTrace, Xoshiro256pp};
use coopckpt_obs::{Counter, Hist, Snapshot};
use coopckpt_workload::trace_workload::{JobStream, TraceClasses, TraceSpec};
use coopckpt_workload::WorkloadSpec;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds the timed repetitions should fill.
    pub seconds: f64,
    /// Simulation threads of the timed campaigns (one per core).
    pub threads: usize,
    /// Directory the run's inputs and caches go under.
    pub work_root: PathBuf,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Checks made (points compared, bracket checks, digests, replays).
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Why checks failed.
    pub notes: Vec<String>,
    /// Observations that are not failures.
    pub remarks: Vec<String>,
    /// The metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Measured and printed, but not part of the result line.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn with_info(mut self, info: Vec<Metric>) -> Outcome {
        self.info = info;
        self
    }
}

/// Counts checks and their failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// Why checks failed.
    pub notes: Vec<String>,
    /// Observations that are not failures.
    pub remarks: Vec<String>,
}

impl Tally {
    /// Records `n` checks of which `bad` failed, with `why` when any did.
    pub fn record(&mut self, n: u64, bad: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad.min(n);
        if bad > 0 {
            self.notes.push(why());
        }
    }

    /// Compares a campaign run against the reference, point by point, at
    /// tolerance 0. A run that failed counts every point as failed.
    pub fn compare(
        &mut self,
        what: &str,
        reference: &Json,
        run: &Result<Run, String>,
        points: usize,
    ) {
        let n = points as u64;
        match run {
            Err(e) => self.record(n, n, || format!("{what}: {e}")),
            Ok(r) => match gate::differing_points(reference, &r.campaign.to_json()) {
                Ok(diff) => self.record(n, diff.len() as u64, || {
                    format!("{what}: output differs from the reference at {diff:?}")
                }),
                Err(e) => self.record(n, n, || format!("{what}: compare failed: {e}")),
            },
        }
    }

    /// Checks the Least-Waste points against the Theorem-1 bracket and,
    /// for the default seed, the output digest.
    pub fn gate_output(&mut self, opts: &Options, points: &[Scenario], run: &Run) {
        match gate::least_waste_bounds(points, &run.campaign) {
            Ok(checks) => {
                let misses: Vec<_> = checks.iter().filter(|c| !c.upper_ok()).collect();
                self.record(checks.len() as u64, misses.len() as u64, || {
                    format!("Least-Waste points above the Theorem-1 bracket: {misses:?}")
                });
                for c in checks.iter().filter(|c| !c.lower_ok()) {
                    self.remarks.push(format!(
                        "{}: mean waste {:.4} is {:.3} x the Theorem-1 lower bound {:.4} \
                         (I/O constraint {}), below the 0.85 floor",
                        c.point,
                        c.waste,
                        c.waste / c.bound,
                        c.bound,
                        if c.io_constrained { "binds" } else { "slack" }
                    ));
                }
            }
            Err(e) => self.record(1, 1, || format!("bracket check failed: {e}")),
        }
        if opts.seed == DEFAULT_SEED {
            let got = gate::digest(&run.rendered);
            let want = gate::recorded_digest(opts.workload.name()).unwrap_or("none");
            self.record(1, u64::from(got != want), || {
                format!("output digest {got} differs from the recorded {want}")
            });
        }
    }

    fn into_outcome(self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            notes: self.notes,
            remarks: self.remarks,
            metrics,
            info: Vec::new(),
        }
    }
}

/// One completed campaign.
#[derive(Debug)]
pub struct Run {
    /// The merged campaign.
    pub campaign: Campaign,
    /// Its JSON rendering (what the digest covers).
    pub rendered: String,
    /// Host seconds from submission to rendered output.
    pub wall_s: f64,
    /// Per-point completion times from the `on_done` callback, ms.
    pub point_ms: Vec<f64>,
}

/// Runs `suite` on `threads` threads with a fresh operating-point cache
/// and, when given, the result cache in `cache_dir`; renders the merged
/// JSON. Errors and panics come back as `Err`.
pub fn run_campaign(
    suite: &Suite,
    threads: usize,
    cache_dir: Option<&Path>,
) -> Result<Run, String> {
    let cache = match cache_dir {
        Some(d) => Some(ResultCache::new(d).map_err(|e| e.to_string())?),
        None => None,
    };
    let opts = CampaignOptions {
        threads,
        cache,
        op_cache: Some(Arc::new(OpPointCache::new())),
    };
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_suite_with(suite, &opts, |_, _, ms| {
            done.lock()
                .expect("no panic while holding the lock")
                .push(ms as f64)
        })
        .map(|c| {
            let rendered = c.render(OutputFormat::Json);
            (c, rendered)
        })
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let (campaign, rendered) = match result {
        Ok(Ok(x)) => x,
        Ok(Err(e)) => return Err(e.to_string()),
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            return Err(format!("campaign panicked: {msg}"));
        }
    };
    Ok(Run {
        campaign,
        rendered,
        wall_s,
        point_ms: done.into_inner().unwrap_or_default(),
    })
}

/// Repeats `f` until it has run at least `min_reps` times and for at
/// least `budget_s` seconds (at most `max_reps` times); returns each
/// repetition's seconds.
pub fn repeat(min_reps: usize, max_reps: usize, budget_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max_reps && (out.len() < min_reps || start.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// The time from reading the suite file to the first point's compiled
/// config — what the program does before its first sample starts:
/// `Suite::parse`, `expand` (which compiles every point, scanning any
/// job log), then the first point's `Scenario::into_config`.
fn setup_once(path: &Path) -> Result<(Suite, Vec<Scenario>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let suite = Suite::parse(&text).map_err(|e| e.to_string())?;
    let points = suite.expand().map_err(|e| e.to_string())?;
    points[0].into_config().map_err(|e| e.to_string())?;
    Ok((suite, points))
}

/// The reference thread count: different from the timed runs'.
fn reference_threads(threads: usize) -> usize {
    if threads > 1 {
        1
    } else {
        2
    }
}

/// The end-to-end pass: `setup_s`, `wall_s`, `samples_per_s` and
/// `peak_rss_mib`, plus `resume_s` as printed information, with telemetry
/// off, checked against a traced reference run at another thread count.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let inputs = Inputs::generate(opts.workload, opts.seed, &opts.work_root)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let (suite, points) = setup_once(&inputs.suite_path)?;
    let n_points = points.len();
    let mut tally = Tally::default();

    coopckpt_obs::set_enabled(true);
    let reference = run_campaign(&suite, reference_threads(opts.threads), None);
    coopckpt_obs::set_enabled(false);
    let reference = reference.map_err(|e| format!("reference run failed: {e}"))?;
    // Peak memory is read here, after one campaign on one worker: with two
    // workers it depends on how their allocations interleave, and it creeps
    // with every further campaign the process runs.
    let rss = crate::stats::peak_rss_mib().ok_or("cannot read peak RSS")?;
    tally.gate_output(opts, &points, &reference);
    let reference_doc = reference.campaign.to_json();
    drop(reference);

    let samples = opts.workload.samples_per_campaign() as f64;
    let (mut wall, mut rate, mut resume, mut setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < 3 || (start.elapsed().as_secs_f64() < opts.seconds && wall.len() < 1000) {
        let dir = inputs
            .fresh_cache_dir(&format!("cache{}", wall.len()))
            .map_err(|e| e.to_string())?;
        let cold = run_campaign(&suite, opts.threads, Some(&dir));
        tally.compare("cold run", &reference_doc, &cold, n_points);
        // Resuming is cheap, so each cold run is followed by several.
        let mut resumed_ok = true;
        let resume_start = Instant::now();
        for r in 0.. {
            if r >= 3 && (r >= 50 || resume_start.elapsed().as_secs_f64() > 0.02 * opts.seconds) {
                break;
            }
            let warm = run_campaign(&suite, opts.threads, Some(&dir));
            tally.compare("resumed run", &reference_doc, &warm, n_points);
            match &warm {
                Ok(w) if w.campaign.cached_points() == n_points => resume.push(w.wall_s),
                Ok(w) => {
                    resumed_ok = false;
                    tally.record(1, 1, || {
                        format!(
                            "resume served {} of {n_points} points from cache",
                            w.campaign.cached_points()
                        )
                    });
                }
                Err(_) => resumed_ok = false,
            }
            if !resumed_ok {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // Set-ups are interleaved with the campaigns, a tenth of each
        // campaign's time, so that every metric samples the host over the
        // whole run rather than over one stretch of it.
        let setup_budget = 0.1 * cold.as_ref().map_or(0.0, |c| c.wall_s);
        setup.extend(repeat(1, 200, setup_budget, || {
            black_box(setup_once(&inputs.suite_path).expect("setup succeeded once already"));
        }));
        match cold {
            Ok(c) if resumed_ok => {
                wall.push(c.wall_s);
                rate.push(samples / c.wall_s);
            }
            _ => {
                if start.elapsed().as_secs_f64() > opts.seconds {
                    break;
                }
            }
        }
    }
    if wall.is_empty() {
        return Err(format!("no campaign completed: {:?}", tally.notes));
    }
    inputs.remove().map_err(|e| e.to_string())?;
    Ok(tally
        .into_outcome(vec![
            Metric::median_of("setup_s", "s", setup),
            Metric::median_of("wall_s", "s", wall),
            Metric::median_of("samples_per_s", "1/s", rate),
            Metric::single("peak_rss_mib", "MiB", rss),
        ])
        .with_info(vec![Metric::median_of("resume_s", "s", resume)]))
}

/// Counter and histogram movement between two snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn count(&self, c: Counter) -> f64 {
        (self.after.counter(c) - self.before.counter(c)) as f64
    }

    fn hist_mean(&self, h: Hist) -> f64 {
        let (a, b) = (self.after.hist(h), self.before.hist(h));
        let n = a.count - b.count;
        if n == 0 {
            0.0
        } else {
            (a.sum - b.sum) as f64 / n as f64
        }
    }

    fn hist_count(&self, h: Hist) -> f64 {
        (self.after.hist(h).count - self.before.hist(h).count) as f64
    }
}

fn ms(v: Vec<f64>) -> Vec<f64> {
    v.into_iter().map(|s| s * 1e3).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sequential `run_simulation` timings, with what each sample reported.
#[derive(Default)]
struct SampleTimes {
    ms: Vec<f64>,
    events: Vec<f64>,
    restarts: Vec<f64>,
    peak_live: Vec<f64>,
}

impl SampleTimes {
    /// Times one `run_simulation` call per seed, in order.
    fn run(&mut self, config: &SimConfig, seeds: impl Iterator<Item = u64>) -> &mut Self {
        for seed in seeds {
            let start = Instant::now();
            let r = black_box(run_simulation(config, seed));
            self.ms.push(start.elapsed().as_secs_f64() * 1e3);
            self.events.push(r.events as f64);
            self.restarts.push(r.restarts as f64);
            self.peak_live.push(r.peak_live_jobs as f64);
        }
        self
    }
}

/// How many sequential samples per timed config each workload affords.
fn seeds_per_config(w: Workload) -> u64 {
    match w {
        Workload::StrategyGrid => 2,
        Workload::ExascaleBigPoint => 6,
        Workload::TraceStream => 3,
    }
}

/// The traced pass: every per-layer metric, from obs counters over a
/// telemetry-on campaign and from the benchmark's own timings of calls into
/// each layer (telemetry off).
pub fn traced(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let inputs = Inputs::generate(w, opts.seed, &opts.work_root)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let text = std::fs::read_to_string(&inputs.suite_path).map_err(|e| e.to_string())?;
    let (suite, points) = setup_once(&inputs.suite_path)?;
    let n_points = points.len();
    let mut tally = Tally::default();
    let budget = 0.05 * opts.seconds;

    // scenario / campaign: the set-up phases.
    let parse = repeat(3, 1000, budget, || {
        black_box(Suite::parse(&text).expect("parsed once already"));
    });
    let compile = repeat(3, 1000, budget, || {
        for p in &points {
            black_box(p.into_config().expect("compiled once already"));
        }
    });

    // Untraced and traced campaigns, alternating, for at least two pairs
    // and 30 % of the run; the first traced run's counters are the layer
    // counts.
    let (mut untraced, mut traced_wall) = (Vec::new(), Vec::new());
    let mut counters = None;
    let mut point_ms = Vec::new();
    let mut last_traced_dir = None;
    let mut reference_doc = None;
    let pairs_start = Instant::now();
    for i in 0.. {
        if i >= 2 && (i >= 20 || pairs_start.elapsed().as_secs_f64() > 0.3 * opts.seconds) {
            break;
        }
        let dir = inputs
            .fresh_cache_dir(&format!("u{i}"))
            .map_err(|e| e.to_string())?;
        let u = run_campaign(&suite, opts.threads, Some(&dir))
            .map_err(|e| format!("untraced run: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        untraced.push(u.wall_s);
        if i == 0 {
            tally.gate_output(opts, &points, &u);
            point_ms = u.point_ms.clone();
            reference_doc = Some(u.campaign.to_json());
        }

        let dir = inputs
            .fresh_cache_dir(&format!("t{i}"))
            .map_err(|e| e.to_string())?;
        coopckpt_obs::set_enabled(true);
        let before = coopckpt_obs::totals();
        let t = run_campaign(&suite, opts.threads, Some(&dir));
        let after = coopckpt_obs::totals();
        coopckpt_obs::set_enabled(false);
        let reference = reference_doc.as_ref().expect("set on the first pass");
        tally.compare("traced run", reference, &t, n_points);
        let t = t.map_err(|e| format!("traced run: {e}"))?;
        traced_wall.push(t.wall_s);
        if i == 0 {
            counters = Some((before, after, t.wall_s));
        }
        if let Some(old) = last_traced_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let cache_dir = last_traced_dir.expect("at least two traced runs");
    let bytes_on_disk: u64 = std::fs::read_dir(&cache_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    coopckpt_obs::set_enabled(true);
    let before_resume = coopckpt_obs::totals();
    let resumed = run_campaign(&suite, opts.threads, Some(&cache_dir));
    let after_resume = coopckpt_obs::totals();
    coopckpt_obs::set_enabled(false);
    let reference = reference_doc.expect("set on the first pass");
    tally.compare("traced resume", &reference, &resumed, n_points);
    let resumed = resumed.map_err(|e| format!("traced resume: {e}"))?;
    let resume = repeat(3, 200, budget, || {
        black_box(
            run_campaign(&suite, opts.threads, Some(&cache_dir)).expect("resumed once already"),
        );
    });
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (before, after, traced_wall0) = counters.expect("first traced run recorded");
    let d = Delta {
        before: &before,
        after: &after,
    };
    let r = Delta {
        before: &before_resume,
        after: &after_resume,
    };

    // report: rendering the merged campaign.
    let render = repeat(3, 1000, budget, || {
        black_box(resumed.campaign.render(OutputFormat::Json));
    });

    // sim: sequential samples of every point, then the Least-Waste /
    // Ordered-NB-Daly pair on the replay point.
    let configs: Vec<(SimConfig, u64)> = points
        .iter()
        .map(|p| p.into_config().map(|c| (c, p.seed)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let k = seeds_per_config(w);
    let mut all = SampleTimes::default();
    for (config, seed) in &configs {
        all.run(config, *seed..*seed + k);
    }
    let total_ms: f64 = all.ms.iter().sum();
    let total_events: f64 = all.events.iter().sum();
    let rp_index = points
        .iter()
        .position(|p| p.name.as_deref() == Some(w.replay_point()))
        .ok_or_else(|| format!("no point named {}", w.replay_point()))?;
    let (rp_config, rp_seed) = configs[rp_index].clone();
    let pair_k = k.min(3);
    let strategy_ms = |name: &str| -> Result<Vec<f64>, String> {
        let s: Strategy = name.parse()?;
        let c = rp_config.clone().with_strategy(s);
        Ok(SampleTimes::default()
            .run(&c, rp_seed..rp_seed + pair_k)
            .ms
            .clone())
    };
    let lw_ms = strategy_ms("least-waste")?;
    let onb_ms = strategy_ms("ordered-nb-daly")?;

    // The recorded sample: telemetry on for its own counters.
    coopckpt_obs::set_enabled(true);
    let s_before = coopckpt_obs::totals();
    let recorded = run_simulation(&rp_config.clone().with_trace(), rp_seed);
    let s_after = coopckpt_obs::totals();
    coopckpt_obs::set_enabled(false);
    let s = Delta {
        before: &s_before,
        after: &s_after,
    };
    let totals = SampleTotals::of(&recorded);
    let events = recorded
        .trace
        .as_ref()
        .ok_or("sample recorded no trace")?
        .events();
    // The recorded sample itself, untraced: the base of the node-pool share.
    let sample_ms = median(
        &SampleTimes::default()
            .run(&rp_config, std::iter::repeat_n(rp_seed, 3))
            .ms,
    );

    // sched: node-pool replay.
    let nodes = rp_config.platform.nodes;
    let mut sched = Err("not run".to_string());
    let sched_s = repeat(3, 200, budget, || {
        sched = replay::replay_sched(nodes, events, &totals)
    });
    let sched = match sched {
        Ok(x) => {
            // The pool observes its scan length once per successful
            // allocation, so the engine's own allocation count is known
            // independently of the trace.
            let engine = s.hist_count(Hist::PoolScanWords);
            let replayed = x.allocs as f64;
            tally.record(1, u64::from(replayed != engine), || {
                format!("node-pool replay made {replayed} allocations, the engine {engine}")
            });
            x
        }
        Err(e) => {
            tally.record(1, 1, || format!("node-pool replay: {e}"));
            replay::SchedReplay::default()
        }
    };
    let sched_ms = median(&sched_s) * 1e3;

    // io: PFS replay.
    let mut io = Err("not run".to_string());
    let io_s = repeat(3, 200, budget, || {
        io = replay::replay_io(
            rp_config.platform.pfs_bandwidth,
            rp_config.interference,
            events,
            &totals,
        )
    });
    let io = match io {
        Ok(x) => {
            tally.record(1, 0, String::new);
            x
        }
        Err(e) => {
            tally.record(1, 1, || format!("PFS replay: {e}"));
            replay::IoReplay::default()
        }
    };
    drop(recorded);

    // failure: the engine's failure-trace call for the workloads'
    // exponential single-class model, on the recorded sample's RNG
    // substream; it must yield the failures the sample reported.
    let mut fails = 0usize;
    let gen_fail = repeat(3, 500, budget, || {
        let mut master = Xoshiro256pp::seed_from_u64(rp_seed);
        let _workload = master.split();
        let mut rng = master.split();
        fails = black_box(FailureTrace::generate_mixed(
            &mut rng,
            nodes,
            rp_config.platform.node_mtbf,
            None,
            &coopckpt_failure::system_only(),
            Time::ZERO + rp_config.span,
        ))
        .len();
    });
    tally.record(1, u64::from(fails as u64 != totals.failures_total), || {
        format!(
            "failure-trace call drew {fails} failures, the sample reported {}",
            totals.failures_total
        )
    });

    // workload: the generator over the replay point's classes, and the
    // job-log stream where there is one.
    let gen_work = repeat(3, 500, budget, || {
        let mut master = Xoshiro256pp::seed_from_u64(rp_seed);
        let mut rng = master.split();
        let spec = WorkloadSpec::new(rp_config.classes.clone())
            .with_min_span(rp_config.span * rp_config.workload_slack.max(1.0));
        black_box(spec.generate(&rp_config.platform, &mut rng));
    });
    let trace_read = match &rp_config.workload_source {
        None => vec![0.0],
        Some(src) => {
            let spec = TraceSpec::parse(src).map_err(|e| e.to_string())?;
            let horizon = Time::ZERO + rp_config.span;
            let classes = TraceClasses::scan_spec(&spec, &rp_config.platform, horizon)
                .map_err(|e| e.to_string())?;
            let mut jobs = 0usize;
            let t = repeat(3, 200, budget, || {
                let mut stream = JobStream::open(&spec, &classes, &rp_config.platform, horizon)
                    .expect("scanned once already");
                jobs = 0;
                while let Some(j) = stream.next_submission() {
                    black_box(j);
                    jobs += 1;
                }
            });
            tally.record(1, u64::from(jobs != classes.jobs), || {
                format!(
                    "job stream yielded {jobs} jobs, the scan counted {}",
                    classes.jobs
                )
            });
            t
        }
    };

    inputs.remove().map_err(|e| e.to_string())?;
    let threads = opts.threads as f64;
    let untraced_med = median(&untraced);
    let token_waits = s.count(Counter::TokenWaits);
    let absorbs = d.count(Counter::TierAbsorbs);
    let spills = d.count(Counter::TierSpills);
    let metrics = vec![
        Metric::median_of("campaign.parse_ms", "ms", ms(parse)),
        Metric::median_of("scenario.compile_ms", "ms", ms(compile)),
        Metric::single("campaign.point_ms_p50", "ms", median(&point_ms)),
        Metric::single(
            "campaign.point_ms_max",
            "ms",
            point_ms.iter().copied().fold(0.0, f64::max),
        ),
        Metric::single(
            "cache.result_hits",
            "count",
            r.count(Counter::ResultCacheHits),
        ),
        Metric::single(
            "cache.result_misses",
            "count",
            d.count(Counter::ResultCacheMisses),
        ),
        Metric::single("cache.bytes_on_disk", "bytes", bytes_on_disk as f64),
        Metric::median_of("cache.resume_ms", "ms", ms(resume)),
        Metric::single(
            "exec.utilization",
            "ratio",
            d.count(Counter::SampleNs) / 1e9 / (traced_wall0 * threads),
        ),
        Metric::single(
            "montecarlo.op_cache_hits",
            "count",
            d.count(Counter::OpCacheHits),
        ),
        Metric::single("sim.sample_ms_p50", "ms", median(&all.ms)),
        Metric::single("sim.sample_ms_p90", "ms", quantile(&all.ms, 0.9)),
        Metric::single("sim.samples_timed", "count", all.ms.len() as f64),
        Metric::single(
            "sim.events_per_sample",
            "count",
            total_events / all.events.len() as f64,
        ),
        Metric::single("sim.ns_per_event", "ns", total_ms * 1e6 / total_events),
        Metric::median_of("sim.sample_ms_p50.least-waste", "ms", lw_ms),
        Metric::median_of("sim.sample_ms_p50.ordered-nb-daly", "ms", onb_ms),
        Metric::single("des.inserts", "count", d.count(Counter::QueueInserts)),
        Metric::single("des.cancels", "count", d.count(Counter::QueueCancels)),
        Metric::single("des.pops", "count", d.count(Counter::QueuePops)),
        Metric::single(
            "des.cancel_ratio",
            "ratio",
            ratio(
                d.count(Counter::QueueCancels),
                d.count(Counter::QueueInserts),
            ),
        ),
        Metric::single(
            "des.bucket_scans_mean",
            "count",
            d.hist_mean(Hist::QueueBucketScans),
        ),
        Metric::single("des.resizes", "count", d.count(Counter::QueueResizes)),
        Metric::median_of("sched.alloc_release_ms", "ms", ms(sched_s)),
        Metric::single("sched.allocs", "count", sched.allocs as f64),
        Metric::single(
            "sched.nodes_allocated",
            "count",
            sched.nodes_allocated as f64,
        ),
        Metric::single("sched.share_of_sample", "ratio", ratio(sched_ms, sample_ms)),
        Metric::single(
            "sched.scan_words_mean",
            "count",
            d.hist_mean(Hist::PoolScanWords),
        ),
        Metric::median_of("io.pfs_replay_ms", "ms", ms(io_s)),
        Metric::single("io.transfers", "count", io.transfers as f64),
        Metric::single("io.token_waits", "count", token_waits),
        Metric::single(
            "io.token_wait_ratio",
            "ratio",
            ratio(token_waits, io.starts as f64),
        ),
        Metric::single("io.tier_absorbs", "count", absorbs),
        Metric::single("io.tier_spills", "count", spills),
        Metric::single("io.tier_drains", "count", d.count(Counter::TierDrains)),
        Metric::single("io.spill_ratio", "ratio", ratio(spills, absorbs + spills)),
        Metric::median_of("failure.trace_gen_ms", "ms", ms(gen_fail)),
        Metric::single("failure.restarts", "count", median(&all.restarts)),
        Metric::median_of("workload.generate_ms", "ms", ms(gen_work)),
        Metric::median_of("workload.trace_read_ms", "ms", ms(trace_read)),
        Metric::single("workload.peak_live_jobs", "count", median(&all.peak_live)),
        Metric::median_of("report.render_ms", "ms", ms(render)),
        Metric::single("report.bytes", "bytes", resumed.rendered.len() as f64),
        Metric::single(
            "obs.overhead_ratio",
            "ratio",
            median(&traced_wall) / untraced_med,
        ),
    ];
    Ok(tally.into_outcome(metrics))
}
