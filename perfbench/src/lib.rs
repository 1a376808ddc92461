//! End-to-end and per-layer benchmark of the coopckpt simulator.
//!
//! See `README.md` in this directory for the workloads, every metric and
//! its unit, and which layer metric should move which end-to-end metric.

pub mod gate;
pub mod gen;
pub mod measure;
pub mod replay;
pub mod stats;
pub mod workload;
