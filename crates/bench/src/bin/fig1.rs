//! Figure 1 of the paper: waste ratio as a function of the aggregate
//! system bandwidth (40 → 160 GB/s) for the seven strategies and the
//! theoretical lower bound; LANL APEX workload on Cielo, 2-year node MTBF.
//!
//! The figure is one declarative [`Scenario`] with a `bandwidth_gbps`
//! sweep, run by the same [`run_scenario`] front door as the CLI.
//!
//! ```sh
//! COOPCKPT_SAMPLES=1000 cargo run --release -p coopckpt-bench --bin fig1 [-- --csv fig1.csv]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, emit_report, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Figure 1: waste ratio vs system bandwidth (Cielo, node MTBF 2 y)",
        &scale,
    );

    // The Cielo preset's node MTBF is 2 years.
    let mut scenario = scale.apply(Scenario::default()).with_name("fig1");
    scenario.sweep = Some(Axis::BandwidthGbps(vec![
        40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0,
    ]));
    emit_report(&run_scenario(&scenario).expect("figure scenario is valid"));
}
