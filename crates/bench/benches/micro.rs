//! Criterion micro-benchmarks for the simulator's hot paths, plus one
//! end-to-end benchmark per strategy.
//!
//! Run with `cargo bench -p coopckpt-bench`.
//!
//! The end-to-end group simulates a 7-day Cielo instance per strategy and
//! dominates the wall-clock (minutes). Setting `COOPCKPT_BENCH_FAST=1`
//! shrinks its horizon to one day — numbers are then only indicative, but
//! the group still exercises the full engine, which is what a CI smoke run
//! needs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use coopckpt::prelude::*;
use coopckpt_des::{EventQueue, Time as DesTime};
use coopckpt_failure::{FailureTrace, Xoshiro256pp};
use coopckpt_io::{LinearShare, Pfs};
use coopckpt_sched::{AllocId, NodePool};
use coopckpt_theory::{lower_bound, ClassParams};

/// DES kernel: schedule + drain a large batch of events.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("des/event_queue_10k", |b| {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let times: Vec<f64> = (0..10_000).map(|_| rng.next_f64() * 1e6).collect();
        b.iter_batched(
            || times.clone(),
            |times| {
                let mut q = EventQueue::new();
                for (i, t) in times.into_iter().enumerate() {
                    q.schedule(DesTime::from_secs(t), i);
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        );
    });
}

/// DES kernel under heavy cancellation at campaign scale: the engine's
/// dominant pattern — checkpoint-due and milestone events are scheduled
/// far ahead and almost always cancelled before they fire (commit
/// completions, failures, and restarts each re-arm them) — on top of a
/// large standing population of live events (every running job holds
/// timers; big platforms keep O(10⁵) in flight). The calendar queue
/// removes cancelled events physically in O(1) against flat index-based
/// buckets; the heap oracle pays a deep sift plus two `HashMap` touches
/// per churned event and accumulates far-future tombstones until its
/// compaction sweep rebuilds the heap. Both run here — same workload —
/// so `BENCH_des.json` records the speedup, and `bench_baseline check`
/// pins the calendar queue at ≥5× over the heap baseline.
fn bench_event_queue_cancel_heavy(c: &mut Criterion) {
    for (name, heap_oracle) in [
        ("des/event_queue_cancel_heavy", false),
        ("des/event_queue_cancel_heavy_heap", true),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut q = if heap_oracle {
                    EventQueue::heap_oracle()
                } else {
                    EventQueue::new()
                };
                // The standing population: live far-future timers that
                // survive the whole churn phase.
                for i in 0..100_000 {
                    q.schedule(DesTime::from_secs(1e7 + i as f64 * 100.0), i);
                }
                // The churn: batches scheduled far ahead, all but one
                // cancelled before anything fires.
                let mut t = 0.0f64;
                for round in 0..4000 {
                    let keys: Vec<_> = (0..64)
                        .map(|i| {
                            t += 1.0;
                            // Far-future events: tombstones never surface
                            // on their own.
                            q.schedule(DesTime::from_secs(t + 1e7), round * 64 + i)
                        })
                        .collect();
                    for k in &keys[1..] {
                        q.cancel(*k);
                    }
                }
                let mut n = 0;
                while q.pop().is_some() {
                    n += 1;
                }
                black_box(n)
            });
        });
    }
}

/// Fluid PFS: 64 concurrent streams joining and draining.
fn bench_pfs(c: &mut Criterion) {
    c.bench_function("io/pfs_64_streams", |b| {
        b.iter(|| {
            let mut pfs: Pfs<usize> = Pfs::new(Bandwidth::from_gbps(100.0), LinearShare);
            for i in 0..64 {
                pfs.start(
                    DesTime::from_secs(i as f64 * 0.1),
                    Bytes::from_gb(10.0 + i as f64),
                    1.0 + (i % 7) as f64,
                    i,
                );
            }
            pfs.advance(DesTime::from_secs(1e5));
            black_box(pfs.take_completed().len())
        });
    });
}

/// The λ-solver on the APEX/Cielo operating point of Fig. 2.
fn bench_lambda_solver(c: &mut Criterion) {
    let platform = coopckpt_workload::cielo().with_bandwidth(Bandwidth::from_gbps(40.0));
    let params: Vec<ClassParams> = coopckpt_workload::classes_for(&platform)
        .iter()
        .map(|cl| ClassParams::from_app_class(cl, &platform))
        .collect();
    c.bench_function("theory/lower_bound_apex", |b| {
        b.iter(|| black_box(lower_bound(&platform, &params).waste));
    });
}

/// Failure-trace generation for a 60-day Cielo instance.
fn bench_failure_trace(c: &mut Criterion) {
    c.bench_function("failure/trace_60d_cielo", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let trace = FailureTrace::generate_exponential(
                &mut rng,
                17_888,
                Duration::from_years(2.0),
                DesTime::from_secs(Duration::from_days(60.0).as_secs()),
            );
            black_box(trace.len())
        });
    });
}

/// Node pool under APEX-class churn on the `exascale` preset's 12,655
/// nodes: fill the machine with jobs drawn by resource share, then
/// alternate failures (the struck node's occupant is released and
/// re-granted at once, as a head-priority restart) with completions
/// (a random job leaves and a fresh one takes its place if it fits).
/// Informational: no tracked baseline.
fn bench_alloc_release_exascale(c: &mut Criterion) {
    let platform = coopckpt_workload::exascale();
    let classes = coopckpt_workload::classes_for(&platform);
    let draw_class = |rng: &mut Xoshiro256pp| {
        let mut u = rng.next_f64();
        for class in &classes {
            u -= class.resource_share;
            if u < 0.0 {
                return class.q_nodes;
            }
        }
        classes.last().expect("APEX has classes").q_nodes
    };
    c.bench_function("sched/alloc_release_exascale", |b| {
        b.iter(|| {
            let mut rng = Xoshiro256pp::seed_from_u64(11);
            let mut pool = NodePool::new(platform.nodes);
            let mut live: Vec<(AllocId, usize)> = Vec::new();
            loop {
                let q = draw_class(&mut rng);
                let Some(id) = pool.allocate(q) else { break };
                live.push((id, q));
            }
            for step in 0..2_000 {
                if step % 2 == 0 {
                    let node = rng.next_bounded(platform.nodes as u64) as usize;
                    let Some(victim) = pool.occupant(node) else {
                        continue;
                    };
                    let slot = live.iter().position(|&(id, _)| id == victim);
                    let (_, q) = live.swap_remove(slot.expect("occupant is live"));
                    pool.release(victim);
                    let restarted = pool.allocate(q).expect("a restart fits its own nodes");
                    live.push((restarted, q));
                } else if !live.is_empty() {
                    let slot = rng.next_bounded(live.len() as u64) as usize;
                    pool.release(live.swap_remove(slot).0);
                    let q = draw_class(&mut rng);
                    if let Some(id) = pool.allocate(q) {
                        live.push((id, q));
                    }
                }
            }
            black_box(pool.free_count())
        });
    });
}

/// End-to-end: one 7-day APEX/Cielo instance per strategy at 40 GB/s
/// (1-day when `COOPCKPT_BENCH_FAST` is set).
fn bench_end_to_end(c: &mut Criterion) {
    let fast = std::env::var("COOPCKPT_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0");
    let span_days = if fast { 1.0 } else { 7.0 };
    let platform = coopckpt_workload::cielo().with_bandwidth(Bandwidth::from_gbps(40.0));
    let classes = coopckpt_workload::classes_for(&platform);
    let mut group = c.benchmark_group(format!("sim/{span_days:.0}day_cielo_40gbps"));
    group.sample_size(10);
    for strategy in Strategy::all_seven() {
        let config = SimConfig::new(platform.clone(), classes.clone(), strategy)
            .with_span(Duration::from_days(span_days));
        let mut seed = 0u64;
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                seed += 1;
                black_box(run_simulation(&config, seed).waste_ratio)
            });
        });
    }
    group.finish();
}

/// Scale stress: stream a 100k-job synthetic trace through the engine
/// (10k jobs under `COOPCKPT_BENCH_FAST`). The jobs are produced lazily
/// by the streaming `JobSource`, so trace generation, admission at
/// submit time, and per-project accounting are all inside the measured
/// loop; peak resident jobs track the arrival/completion balance, not
/// the trace length.
fn bench_trace_stream(c: &mut Criterion) {
    let fast = std::env::var("COOPCKPT_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0");
    let jobs = if fast { 10_000 } else { 100_000 };
    // Short jobs on a tight arrival clock: 100k jobs fit inside ~35
    // simulated days with O(100) resident at any instant.
    let spec = format!(
        "synthetic:jobs={jobs},seed=1,projects=16,max_nodes=512,\
         mean_walltime_hours=1,max_walltime_hours=4,mean_interarrival_secs=30"
    );
    let sc = Scenario {
        workload: WorkloadSource::Trace(spec),
        span: Duration::from_days(45.0),
        ..Scenario::default()
    };
    let config = sc.into_config().expect("trace scenario compiles");
    let mut group = c.benchmark_group("e2e");
    group.sample_size(10);
    let mut seed = 0u64;
    group.bench_function("trace_100k_jobs", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_simulation(&config, seed).peak_live_jobs)
        });
    });
    group.finish();
}

/// Campaign throughput: a small suite through the work-stealing runner,
/// cold (fresh operating-point cache per iteration — every point
/// simulates) vs warm (one shared cache — after the first iteration every
/// point is a memoized lookup). The gap is the value of the
/// operating-point cache; the warm number is the runner's pure overhead.
fn bench_campaign(c: &mut Criterion) {
    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    use coopckpt::montecarlo::OpPointCache;
    use std::sync::Arc;

    let suite = Suite::parse(
        r#"{
            "name": "bench",
            "base": {
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 0.25,
                "samples": 1,
                "seed": 1
            },
            "grid": {
                "strategy": ["least-waste", "ordered-daly", "oblivious-daly"],
                "bandwidth_gbps": [40, 160]
            }
        }"#,
    )
    .expect("bench suite parses");

    let mut group = c.benchmark_group("campaign/6pt_quarter_day");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let opts = CampaignOptions {
                threads: 0,
                cache: None,
                op_cache: Some(Arc::new(OpPointCache::new())),
            };
            black_box(run_suite(&suite, &opts).expect("suite runs").entries.len())
        });
    });
    let shared = Arc::new(OpPointCache::new());
    group.bench_function("warm", |b| {
        b.iter(|| {
            let opts = CampaignOptions {
                threads: 0,
                cache: None,
                op_cache: Some(Arc::clone(&shared)),
            };
            black_box(run_suite(&suite, &opts).expect("suite runs").entries.len())
        });
    });
    group.finish();
}

/// Tentpole gate for the two-level pool: a *one-point* suite with a big
/// sample count, run through the campaign runner. `pooled` (threads = 0)
/// lets every worker steal sample chunks from the single point;
/// `scenario_sharded` (threads = 1) is what scenario-level-only sharding
/// gives a lone point — one worker, samples in series. On a multi-core
/// machine `bench_baseline check` requires `pooled` to beat
/// `scenario_sharded` (the two coincide on a single core).
fn bench_suite_single_big_point(c: &mut Criterion) {
    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    use coopckpt::montecarlo::OpPointCache;
    use std::sync::Arc;

    let fast = std::env::var("COOPCKPT_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0");
    let samples = if fast { 32 } else { 128 };
    let suite = Suite::parse(&format!(
        r#"{{
            "name": "bigpoint",
            "base": {{
                "platform": {{"preset": "cielo", "bandwidth_gbps": 40}},
                "span_days": 0.25,
                "samples": {samples},
                "seed": 7
            }},
            "grid": {{"strategy": ["least-waste"]}}
        }}"#,
    ))
    .expect("big-point suite parses");

    let mut group = c.benchmark_group("e2e/suite_single_big_point");
    group.sample_size(10);
    for (label, threads) in [("pooled", 0usize), ("scenario_sharded", 1usize)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                // A fresh operating-point cache per iteration, so every
                // iteration really simulates all samples.
                let opts = CampaignOptions {
                    threads,
                    cache: None,
                    op_cache: Some(Arc::new(OpPointCache::new())),
                };
                black_box(run_suite(&suite, &opts).expect("suite runs").entries.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_cancel_heavy,
    bench_pfs,
    bench_lambda_solver,
    bench_failure_trace,
    bench_alloc_release_exascale,
    bench_end_to_end,
    bench_trace_stream,
    bench_campaign,
    bench_suite_single_big_point
);
criterion_main!(benches);
