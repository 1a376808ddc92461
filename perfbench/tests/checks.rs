//! The benchmark's own checks: deterministic inputs, a gate that counts a
//! perturbed output as failed, and replays that refuse a truncated trace.

use coopckpt::json::Json;
use coopckpt::sim::InterferenceKind;
use coopckpt::{run_simulation, Scenario, Suite};
use coopckpt_perfbench::gen;
use coopckpt_perfbench::measure::{run_campaign, Run, Tally};
use coopckpt_perfbench::replay::{replay_io, replay_sched, SampleTotals};
use coopckpt_perfbench::stats::quartiles;
use coopckpt_perfbench::workload::{Inputs, Workload};
use std::path::PathBuf;

/// A per-test scratch directory under Cargo's temp dir for this target.
fn scratch(name: &str) -> PathBuf {
    let d = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn generators_are_deterministic_per_seed() {
    let a = gen::job_log_csv(7, 2_000);
    assert_eq!(a, gen::job_log_csv(7, 2_000));
    assert_ne!(a, gen::job_log_csv(8, 2_000));
    assert_eq!(a.lines().count(), 2_001, "header plus one line per job");
    let mut projects = std::collections::BTreeSet::new();
    for line in a.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let nodes: usize = fields[2].parse().expect("node count");
        assert!(nodes.is_power_of_two() && nodes <= 1 << gen::TRACE_MAX_NODES_LOG2);
        projects.insert(fields[0].to_string());
    }
    assert!(projects.len() <= gen::TRACE_PROJECTS);

    for suite in [
        gen::strategy_grid_suite as fn(u64) -> String,
        gen::exascale_suite,
        |s| gen::trace_stream_suite(s, "jobs.csv"),
    ] {
        assert_eq!(suite(3), suite(3));
        assert_ne!(suite(3), suite(4));
        Suite::parse(&suite(3)).expect("generated suites parse");
    }
}

#[test]
fn generated_files_repeat_byte_for_byte() {
    let root = scratch("gen_repeat");
    let read = |i: &Inputs| {
        let log = std::fs::read(i.dir.join("jobs.csv")).expect("job log written");
        (std::fs::read(&i.suite_path).expect("suite written"), log)
    };
    let first = Inputs::generate(Workload::TraceStream, 5, &root).expect("inputs");
    let a = read(&first);
    let again = Inputs::generate(Workload::TraceStream, 5, &root).expect("inputs");
    assert_eq!(a, read(&again));
    again.remove().expect("cleanup");
}

#[test]
fn suites_expand_to_the_stated_sizes() {
    let grid = Suite::parse(&gen::strategy_grid_suite(1)).expect("grid parses");
    let points = grid.expand().expect("grid expands");
    let samples: usize = points.iter().map(|p| p.samples).sum();
    assert_eq!(samples, Workload::StrategyGrid.samples_per_campaign());
    let replay = Workload::StrategyGrid.replay_point();
    assert!(points.iter().any(|p| p.name.as_deref() == Some(replay)));
    let tiered = points
        .iter()
        .filter(|p| p.strategy.spec_name() == "tiered-daly")
        .count();
    assert_eq!(tiered, 2);

    let big = Suite::parse(&gen::exascale_suite(1)).expect("parses");
    let points = big.expand().expect("expands");
    assert_eq!(points.len(), 1);
    assert_eq!(
        points[0].name.as_deref(),
        Some(Workload::ExascaleBigPoint.replay_point())
    );
}

/// A two-point campaign small enough for a test.
fn tiny_suite() -> Suite {
    Suite::parse(
        r#"{"name": "tiny", "base": {"platform": {"preset": "cielo", "bandwidth_gbps": 40},
            "span_days": 1, "samples": 2, "seed": 3},
            "grid": {"strategy": ["least-waste", "ordered-nb-daly"]}}"#,
    )
    .expect("tiny suite parses")
}

/// Adds a relative 1e-12 to the first number in `v`.
fn perturb(v: &mut Json) -> bool {
    match v {
        Json::Num(x) => {
            *x += x.abs().max(1.0) * 1e-12;
            true
        }
        Json::Arr(items) => items.iter_mut().any(perturb),
        Json::Obj(pairs) => pairs.iter_mut().any(|(_, v)| perturb(v)),
        _ => false,
    }
}

#[test]
fn a_perturbed_point_counts_as_failed() {
    let suite = tiny_suite();
    let reference = run_campaign(&suite, 1, None).expect("reference runs");
    let reference_doc = reference.campaign.to_json();

    let mut tally = Tally::default();
    let same = run_campaign(&suite, 2, None);
    tally.compare("same", &reference_doc, &same, 2);
    assert_eq!((tally.attempted, tally.failed), (2, 0), "{:?}", tally.notes);

    let mut changed = same.expect("second run");
    let entry = &mut changed.campaign.entries[1];
    let sections = match &mut entry.report {
        Json::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == "sections")
            .map(|(_, v)| v)
            .expect("report has sections"),
        _ => panic!("report is an object"),
    };
    assert!(perturb(sections), "found a number to perturb");
    tally.compare("perturbed", &reference_doc, &Ok(changed), 2);
    assert_eq!((tally.attempted, tally.failed), (4, 1), "{:?}", tally.notes);

    let failed: Result<Run, String> = Err("boom".to_string());
    tally.compare("errored", &reference_doc, &failed, 2);
    assert_eq!((tally.attempted, tally.failed), (6, 3));
    let failed_frac = tally.failed as f64 / tally.attempted as f64;
    assert_eq!(failed_frac, 0.5);
}

#[test]
fn replays_reproduce_a_full_trace_and_refuse_a_truncated_one() {
    let sc = Scenario::parse(
        r#"{"platform": {"preset": "cielo", "bandwidth_gbps": 40}, "strategy": "least-waste",
            "span_days": 3, "samples": 1, "seed": 11}"#,
    )
    .expect("scenario parses");
    let config = sc.into_config().expect("compiles").with_trace();
    let result = run_simulation(&config, 11);
    let totals = SampleTotals::of(&result);
    let events = result.trace.as_ref().expect("trace recorded").events();
    let nodes = config.platform.nodes;
    let bw = config.platform.pfs_bandwidth;

    let sched = replay_sched(nodes, events, &totals).expect("full trace replays");
    let started = events.iter().filter(|e| e.label() == "job_started").count() as u64;
    assert_eq!(sched.allocs, started);
    assert!(sched.nodes_allocated >= sched.allocs);
    let io = replay_io(bw, InterferenceKind::Linear, events, &totals).expect("full trace replays");
    assert!(io.transfers > 0 && io.transfers <= io.starts);

    let half = &events[..events.len() / 2];
    assert!(replay_sched(nodes, half, &totals).is_err());
    assert!(replay_io(bw, InterferenceKind::Linear, half, &totals).is_err());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
}
