//! Seeded input generators: the two suite files and the `trace_stream`
//! job log. The program under test only ever sees the files written here.
//!
//! The generators use their own SplitMix64 stream rather than the
//! simulator's RNG, so a change to the program can never change the
//! benchmark's inputs. The seed only varies the inputs' random content
//! (Monte-Carlo base seeds, the job log); sizes are fixed per workload, so
//! every seed asks for the same amount of work.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The seven strategies of the paper's evaluation, in plotting order.
pub const SEVEN_STRATEGIES: [&str; 7] = [
    "oblivious-fixed",
    "oblivious-daly",
    "ordered-fixed",
    "ordered-daly",
    "ordered-nb-fixed",
    "ordered-nb-daly",
    "least-waste",
];

/// PFS bandwidths (GB/s) of the strategy grid: contended and relaxed.
pub const GRID_BANDWIDTHS: [u32; 2] = [40, 160];

/// Strategy-grid size: span (days) and Monte-Carlo samples per point.
pub const GRID_SPAN_DAYS: u32 = 30;
pub const GRID_SAMPLES: usize = 8;

/// Exascale point size: a long span and many samples on one point.
pub const EXASCALE_SPAN_DAYS: u32 = 150;
pub const EXASCALE_SAMPLES: usize = 48;

/// Trace-stream size: the job log, the span that covers it, and samples.
pub const TRACE_JOBS: usize = 100_000;
pub const TRACE_PROJECTS: usize = 16;
/// Largest job, nodes; sizes are drawn log-uniform over powers of two.
pub const TRACE_MAX_NODES_LOG2: u32 = 9;
pub const TRACE_SPAN_DAYS: u32 = 36;
pub const TRACE_SAMPLES: usize = 4;
/// Strategy the job log runs under.
pub const TRACE_STRATEGY: &str = "ordered-nb-daly";

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, seedable, and fully
/// specified, so generated inputs are stable across platforms.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`: safe under `ln` and negative powers.
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The Monte-Carlo base seed a workload's suite uses for benchmark seed
/// `seed` (one per workload, so the workloads draw unrelated streams).
pub fn mc_seed(seed: u64, salt: u64) -> u64 {
    1 + SplitMix64::new(seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64() % 1_000_000_000
}

/// The strategy grid: Cielo with a 2-year node MTBF, the seven strategies
/// × {40, 160} GB/s, plus `tiered-daly` over a 3-tier hierarchy at both
/// bandwidths.
pub fn strategy_grid_suite(seed: u64) -> String {
    let s = mc_seed(seed, 1);
    let strategies = SEVEN_STRATEGIES.map(|x| format!("\"{x}\"")).join(", ");
    let bandwidths = GRID_BANDWIDTHS.map(|b| b.to_string()).join(", ");
    let common = format!(
        "\"workload\": \"apex\", \"interference\": \"linear\", \"failures\": \"exponential\", \
         \"span_days\": {GRID_SPAN_DAYS}, \"samples\": {GRID_SAMPLES}, \"seed\": {s}"
    );
    let tiered: Vec<String> = GRID_BANDWIDTHS
        .iter()
        .map(|bw| {
            format!(
                "    {{\"name\": \"strategy-grid/strategy=tiered-daly/bandwidth_gbps={bw}\", \
                 \"platform\": {{\"preset\": \"cielo\", \"mtbf_years\": 2.0, \"bandwidth_gbps\": {bw}}}, \
                 \"strategy\": \"tiered-daly\", \"tiers\": 3, {common}}}"
            )
        })
        .collect();
    format!(
        "{{\n  \"name\": \"strategy-grid\",\n  \"base\": {{\"platform\": {{\"preset\": \"cielo\", \
         \"mtbf_years\": 2.0}}, {common}}},\n  \"grid\": {{\"strategy\": [{strategies}], \
         \"bandwidth_gbps\": [{bandwidths}]}},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        tiered.join(",\n")
    )
}

/// One Least-Waste point on the `exascale` preset with a 1-year node MTBF.
pub fn exascale_suite(seed: u64) -> String {
    let s = mc_seed(seed, 2);
    format!(
        "{{\n  \"name\": \"exascale-big-point\",\n  \"base\": {{\"name\": \"exascale-big-point/least-waste\", \
         \"platform\": {{\"preset\": \"exascale\", \"mtbf_years\": 1.0}}, \"workload\": \"apex\", \
         \"strategy\": \"least-waste\", \"interference\": \"linear\", \"failures\": \"exponential\", \
         \"span_days\": {EXASCALE_SPAN_DAYS}, \"samples\": {EXASCALE_SAMPLES}, \"seed\": {s}}}\n}}\n"
    )
}

/// The job log streamed on Cielo at 40 GB/s. `log_path` is the path the
/// program opens, relative to its working directory.
pub fn trace_stream_suite(seed: u64, log_path: &str) -> String {
    let s = mc_seed(seed, 3);
    format!(
        "{{\n  \"name\": \"trace-stream\",\n  \"base\": {{\"name\": \"trace-stream/{TRACE_STRATEGY}\", \
         \"platform\": {{\"preset\": \"cielo\", \"bandwidth_gbps\": 40}}, \
         \"workload\": {{\"trace\": \"{log_path}\"}}, \"strategy\": \"{TRACE_STRATEGY}\", \
         \"interference\": \"linear\", \"failures\": \"exponential\", \
         \"span_days\": {TRACE_SPAN_DAYS}, \"samples\": {TRACE_SAMPLES}, \"seed\": {s}}}\n}}\n"
    )
}

/// Renders `jobs` job-log records as CSV (`project, submit_time, nodes,
/// walltime, ckpt_bytes`):
///
/// * arrivals are Poisson with a 30 s mean gap, so 100k jobs span ~35 days;
/// * node counts are log-uniform over the powers of two up to 512;
/// * walltimes are Pareto (α = 1.5) with a 1 h mean, capped at 4 h;
/// * projects `p0..p15` are skewed toward low indices (`⌊16·u²⌋`);
/// * each checkpoint writes 64 GB per node.
///
/// Floats print in Rust's shortest round-trip form, so the text is a pure
/// function of `seed` and `jobs`.
pub fn job_log_csv(seed: u64, jobs: usize) -> String {
    const MEAN_GAP_SECS: f64 = 30.0;
    const ALPHA: f64 = 1.5;
    const MEAN_WALL_SECS: f64 = 3600.0;
    const MAX_WALL_SECS: f64 = 4.0 * 3600.0;
    const CKPT_BYTES_PER_NODE: u64 = 64_000_000_000;
    let mut rng = SplitMix64::new(seed ^ 0x006a_6f62_5f6c_6f67);
    let mut out = String::with_capacity(jobs * 56 + 64);
    out.push_str("project,submit_time,nodes,walltime,ckpt_bytes\n");
    let mut clock = 0.0f64;
    let x_min = MEAN_WALL_SECS * (ALPHA - 1.0) / ALPHA;
    for _ in 0..jobs {
        clock += -MEAN_GAP_SECS * rng.next_open01().ln();
        let nodes = 1usize << (rng.next_u64() % u64::from(TRACE_MAX_NODES_LOG2 + 1));
        let wall = (x_min / rng.next_open01().powf(1.0 / ALPHA)).min(MAX_WALL_SECS);
        let u = rng.next_open01();
        let project = ((u * u * TRACE_PROJECTS as f64) as usize).min(TRACE_PROJECTS - 1);
        let ckpt = nodes as u64 * CKPT_BYTES_PER_NODE;
        writeln!(out, "p{project},{clock},{nodes},{wall},{ckpt}").expect("writing to a String");
    }
    out
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    f.flush()
}
