//! Trace-driven workload semantics, end to end:
//!
//! * **Streaming ≡ materialized** — draining a synthetic source lazily,
//!   slurping it into memory, and replaying it through a CSV job log all
//!   yield the same records, and the simulations they drive are
//!   bit-identical.
//! * **Per-project exactness** — the project rows of a trace run sum to
//!   the ledger's totals bit for bit, and agree with the platform
//!   breakdown to floating-point association error.
//! * **Report stability** — a trace scenario's rendered report is
//!   identical at any `--threads` value.
//! * **Bounded residency** — a 100k-job trace streams through the engine
//!   with peak resident jobs orders of magnitude below the trace length.

use coopckpt::prelude::*;
use coopckpt_stats::Category;
use coopckpt_workload::trace_workload::{JobSource, MaterializedSource, TraceJob, TraceSpec};

const SPEC: &str = "synthetic:jobs=400,seed=11,projects=5,max_nodes=512,\
                    mean_walltime_hours=2,max_walltime_hours=10,\
                    mean_interarrival_secs=600";

/// A default scenario pointed at `spec`, small enough for test runtimes.
fn trace_scenario(spec: &str, span_days: f64) -> Scenario {
    Scenario {
        name: Some("trace-test".to_string()),
        workload: WorkloadSource::Trace(spec.to_string()),
        span: Duration::from_days(span_days),
        samples: 2,
        ..Scenario::default()
    }
}

/// Exact identity on a trace record (bit patterns for the float fields).
fn record_key(j: &TraceJob) -> (String, u64, usize, u64, Option<u64>) {
    (
        j.project.clone(),
        j.submit.as_secs().to_bits(),
        j.nodes,
        j.walltime.as_secs().to_bits(),
        j.ckpt_bytes.map(|b| b.as_bytes().to_bits()),
    )
}

fn drain(spec: &TraceSpec) -> Vec<TraceJob> {
    let mut source = spec.open().expect("spec opens");
    let mut out = Vec::new();
    while let Some(job) = source.next_job() {
        out.push(job.expect("valid record"));
    }
    out
}

#[test]
fn streaming_materialized_and_csv_replay_are_bit_identical() {
    let spec = TraceSpec::parse(SPEC).expect("spec parses");

    // Layer 1: the lazy stream and an eager slurp yield identical records.
    let streamed = drain(&spec);
    let mut source = spec.open().expect("spec reopens");
    let mut slurped = MaterializedSource::slurp(source.as_mut()).expect("slurp succeeds");
    assert_eq!(slurped.len(), streamed.len());
    let mut replayed = Vec::new();
    while let Some(job) = slurped.next_job() {
        replayed.push(job.expect("materialized records are valid"));
    }
    for (a, b) in streamed.iter().zip(&replayed) {
        assert_eq!(record_key(a), record_key(b));
    }

    // Layer 2: dump the records to a CSV job log and replay the file
    // through the full scenario path — classes, config and simulation
    // must be bit-identical to the synthetic original. The CSV carries
    // floats in shortest-round-trip form, so nothing is lost in transit.
    let path =
        std::env::temp_dir().join(format!("coopckpt-trace-replay-{}.csv", std::process::id()));
    let mut csv = String::from("project,submit_time,nodes,walltime,ckpt_bytes\n");
    for j in &streamed {
        let ckpt = match j.ckpt_bytes {
            Some(b) => format!("{}", b.as_bytes()),
            None => String::new(),
        };
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            j.project,
            j.submit.as_secs(),
            j.nodes,
            j.walltime.as_secs(),
            ckpt
        ));
    }
    std::fs::write(&path, csv).expect("CSV written");

    let synthetic = trace_scenario(SPEC, 7.0);
    let from_file = trace_scenario(path.to_str().expect("utf-8 temp path"), 7.0);
    let cfg_a = synthetic.into_config().expect("synthetic compiles");
    let cfg_b = from_file.into_config().expect("CSV replay compiles");
    assert_eq!(cfg_a.classes, cfg_b.classes, "scanned class tables differ");
    for seed in [1, 7] {
        let a = run_simulation(&cfg_a, seed);
        let b = run_simulation(&cfg_b, seed);
        assert_eq!(a.waste_ratio.to_bits(), b.waste_ratio.to_bits());
        assert_eq!(a.events, b.events);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(a.peak_live_jobs, b.peak_live_jobs);
        let (pa, pb) = (a.projects.unwrap(), b.projects.unwrap());
        for ((name_a, led_a), (name_b, led_b)) in pa.iter().zip(pb.iter()) {
            assert_eq!(name_a, name_b);
            for cat in Category::ALL {
                assert_eq!(led_a.get(cat).to_bits(), led_b.get(cat).to_bits());
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn project_rows_sum_to_the_ledger_totals_exactly() {
    let config = trace_scenario(SPEC, 7.0)
        .into_config()
        .expect("trace compiles");
    let result = run_simulation(&config, 3);
    let ledger = result.projects.expect("trace runs carry projects");
    assert!(ledger.len() >= 2, "expected several projects");

    // The totals row is defined as the in-order fold over the project
    // rows, so equality here is bit-exact, not approximate.
    let totals = ledger.totals();
    for cat in Category::ALL {
        let fold = ledger.iter().fold(0.0_f64, |acc, (_, l)| acc + l.get(cat));
        assert_eq!(
            fold.to_bits(),
            totals.get(cat).to_bits(),
            "category {cat:?} drifted from the in-order fold"
        );
    }

    // Against the platform ledger the sums differ only in floating-point
    // association order: every interval is booked into both with the same
    // operands.
    for (label, amount) in &result.breakdown {
        let project_sum = totals
            .breakdown()
            .into_iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("projects ledger is missing category {label}"));
        let scale = amount.abs().max(project_sum.abs()).max(1.0);
        assert!(
            (amount - project_sum).abs() <= 1e-9 * scale,
            "{label}: platform {amount} vs project sum {project_sum}"
        );
    }
}

#[test]
fn trace_reports_are_thread_count_stable() {
    // The checked-in preset, shrunk for test runtime; the projects
    // section is part of the compared output.
    let mut base = Scenario::load(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/trace_sample.json"),
    )
    .expect("trace_sample preset loads");
    base.span = Duration::from_days(4.0);
    base.samples = 2;
    // Through the campaign runner at each thread count, as `coopckpt
    // run --threads <n>` does; a fresh operating-point cache per run so
    // every thread count really recomputes.
    let render = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(std::sync::Arc::new(OpPointCache::new())),
        };
        let campaign = run_suite(&Suite::single(base.clone()), &opts).expect("trace preset runs");
        let entry = &campaign.entries[0];
        (entry.text.clone(), entry.csv.clone(), entry.report.pretty())
    };
    let single = render(1);
    assert!(
        single.0.contains("== projects =="),
        "trace report must carry the projects section:\n{}",
        single.0
    );
    for threads in [2, 8] {
        let multi = render(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
        assert_eq!(single.2, multi.2, "JSON differs at --threads {threads}");
    }
}

#[test]
fn hundred_thousand_jobs_stream_with_bounded_residency() {
    // Short jobs on a 5-second arrival clock: the whole log spans ~6
    // simulated days, with resident jobs set by the arrival/completion
    // balance, not the trace length. Checkpoint volumes are kept small
    // (2 GB/node) so the offered I/O load stays well under the PFS
    // bandwidth — the point here is streaming scale, not contention.
    let spec = "synthetic:jobs=100000,seed=9,projects=16,max_nodes=64,\
                mean_walltime_hours=0.1,max_walltime_hours=1,\
                mean_interarrival_secs=5,gb_per_node=2,ckpt_frac=1";
    let config = trace_scenario(spec, 14.0)
        .into_config()
        .expect("100k-job trace compiles");
    let result = run_simulation(&config, 1);
    assert_eq!(result.jobs_completed, 100_000);
    assert!(
        result.peak_live_jobs >= 1 && result.peak_live_jobs * 50 < 100_000,
        "peak resident jobs {} is not \u{226a} the 100k-job trace length",
        result.peak_live_jobs
    );
    let ledger = result.projects.expect("trace runs carry projects");
    assert_eq!(ledger.len(), 16, "all 16 projects appear in the ledger");
}
