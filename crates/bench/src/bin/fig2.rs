//! Figure 2 of the paper: waste ratio as a function of node MTBF
//! (2 → 50 years) at a fixed, scarce 40 GB/s of aggregate bandwidth;
//! LANL APEX workload on Cielo.
//!
//! The figure is one declarative [`Scenario`] with an `mtbf_years`
//! sweep, run by the same [`run_scenario`] front door as the CLI.
//!
//! ```sh
//! COOPCKPT_SAMPLES=1000 cargo run --release -p coopckpt-bench --bin fig2 [-- --csv fig2.csv]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Figure 2: waste ratio vs node MTBF (Cielo, 40 GB/s)",
        &scale,
    );

    let mut scenario = cielo_scenario(40.0, &scale).with_name("fig2");
    scenario.sweep = Some(Axis::MtbfYears(vec![2.0, 4.0, 7.0, 10.0, 20.0, 35.0, 50.0]));
    emit_report(&run_scenario(&scenario).expect("figure scenario is valid"));
}
