//! The benchmark's workloads and the files each one hands the program.

use crate::gen;
use std::path::{Path, PathBuf};

/// One benchmark workload: a closed-loop batch of one campaign, submitted
/// through `run_suite_with` from a single process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own campaign: many small points, every I/O discipline,
    /// PFS contention at 40 GB/s, the tier cascade, 16 reports.
    StrategyGrid,
    /// One huge Least-Waste point: the pool shards samples; node-pool
    /// churn and failure handling dominate.
    ExascaleBigPoint,
    /// A 100k-job log streamed through the CSV reader: DES queue churn,
    /// fit passes, the trace scan and per-project ledgers.
    TraceStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::StrategyGrid,
        Workload::ExascaleBigPoint,
        Workload::TraceStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StrategyGrid => "strategy_grid",
            Workload::ExascaleBigPoint => "exascale_big_point",
            Workload::TraceStream => "trace_stream",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Monte-Carlo samples one campaign of this workload simulates.
    pub fn samples_per_campaign(self) -> usize {
        match self {
            Workload::StrategyGrid => {
                (gen::SEVEN_STRATEGIES.len() + 1) * gen::GRID_BANDWIDTHS.len() * gen::GRID_SAMPLES
            }
            Workload::ExascaleBigPoint => gen::EXASCALE_SAMPLES,
            Workload::TraceStream => gen::TRACE_SAMPLES,
        }
    }

    /// The point whose single sample the traced run records and replays
    /// into the node pool and the PFS. It carries no storage tiers, which
    /// the I/O replay does not model.
    pub fn replay_point(self) -> &'static str {
        match self {
            Workload::StrategyGrid => "strategy-grid/strategy=least-waste/bandwidth_gbps=40",
            Workload::ExascaleBigPoint => "exascale-big-point/least-waste",
            Workload::TraceStream => "trace-stream/ordered-nb-daly",
        }
    }
}

/// The generated inputs of one run, under a work directory the run owns.
#[derive(Debug)]
pub struct Inputs {
    /// The run's work directory (inputs and result caches).
    pub dir: PathBuf,
    /// The suite file handed to the program.
    pub suite_path: PathBuf,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed` under
    /// `root/<workload>-seed<seed>/`, replacing what a previous run left.
    /// The job log's path is written into the suite relative to the
    /// working directory, so merged outputs (and their digests) do not
    /// depend on where the checkout lives.
    pub fn generate(workload: Workload, seed: u64, root: &Path) -> std::io::Result<Inputs> {
        let dir = root.join(format!("{}-seed{seed}", workload.name()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let suite = match workload {
            Workload::StrategyGrid => gen::strategy_grid_suite(seed),
            Workload::ExascaleBigPoint => gen::exascale_suite(seed),
            Workload::TraceStream => {
                let log = dir.join("jobs.csv");
                let csv = gen::job_log_csv(seed, gen::TRACE_JOBS);
                gen::write_file(&log, &csv)?;
                let rel = log
                    .to_str()
                    .expect("work paths are UTF-8")
                    .replace('\\', "/");
                gen::trace_stream_suite(seed, &rel)
            }
        };
        let suite_path = dir.join("suite.json");
        gen::write_file(&suite_path, &suite)?;
        Ok(Inputs { dir, suite_path })
    }

    /// A fresh, empty result-cache directory `name` under the work dir.
    pub fn fresh_cache_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let d = self.dir.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d)?;
        }
        Ok(d)
    }

    /// Removes the work directory.
    pub fn remove(self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.dir)
    }
}
