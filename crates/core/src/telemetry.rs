//! Run-journal projection of [`coopckpt_obs`] telemetry.
//!
//! The `coopckpt-obs` registry is a numeric leaf — it knows counters,
//! histograms, and spans but not JSON. [`journal_record`] renders a scope
//! [`Snapshot`] as the JSON-lines run-journal record, one per completed
//! campaign point (a `run` or `sweep` is a one-point campaign). The
//! journal is telemetry's only sink: reports never carry telemetry, so a
//! report is byte-identical with telemetry on and off (asserted by
//! `tests/telemetry_semantics.rs`).

use crate::json::Json;
use coopckpt_obs::{Counter, Hist, Snapshot};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Builds the run-journal record for one completed scenario or campaign
/// point: identity (`point`, `worker`), wall clock, sampling volume,
/// cache outcome, the point's queue/cache/engine counters, phase timings,
/// sample-time quantiles, and the mean and max of every histogram.
pub fn journal_record(
    point: &str,
    wall_ms: f64,
    samples: usize,
    cache_hit: bool,
    worker: usize,
    snap: &Snapshot,
) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("point", Json::str(point)),
        ("wall_ms", Json::Num(wall_ms)),
        ("samples", Json::Num(samples as f64)),
        ("cache_hit", Json::Bool(cache_hit)),
        ("worker", Json::Num(worker as f64)),
        ("peak_live_jobs", n(snap.hist(Hist::PeakLiveJobs).max)),
        (
            "queue",
            Json::obj([
                ("inserts", n(snap.counter(Counter::QueueInserts))),
                ("cancels", n(snap.counter(Counter::QueueCancels))),
                ("pops", n(snap.counter(Counter::QueuePops))),
                ("resizes", n(snap.counter(Counter::QueueResizes))),
                (
                    "bucket_scans_mean",
                    Json::Num(snap.hist(Hist::QueueBucketScans).mean()),
                ),
                (
                    "bucket_occupancy_max",
                    n(snap.hist(Hist::QueueBucketOccupancy).max),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("op_lookups", n(snap.counter(Counter::OpCacheLookups))),
                ("op_hits", n(snap.counter(Counter::OpCacheHits))),
                ("op_misses", n(snap.counter(Counter::OpCacheMisses))),
                (
                    "result_lookups",
                    n(snap.counter(Counter::ResultCacheLookups)),
                ),
                ("result_hits", n(snap.counter(Counter::ResultCacheHits))),
                ("result_misses", n(snap.counter(Counter::ResultCacheMisses))),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("token_waits", n(snap.counter(Counter::TokenWaits))),
                ("tier_absorbs", n(snap.counter(Counter::TierAbsorbs))),
                ("tier_spills", n(snap.counter(Counter::TierSpills))),
                ("tier_drains", n(snap.counter(Counter::TierDrains))),
                (
                    "rng_substream_draws",
                    n(snap.counter(Counter::RngSubstreamDraws)),
                ),
            ]),
        ),
        (
            "phases_ms",
            Json::obj([
                (
                    "trace_gen",
                    Json::Num(ms(snap.counter(Counter::TraceGenNs))),
                ),
                ("replay", Json::Num(ms(snap.counter(Counter::ReplayNs)))),
                ("render", Json::Num(ms(snap.counter(Counter::RenderNs)))),
                ("sample", Json::Num(ms(snap.counter(Counter::SampleNs)))),
            ]),
        ),
        (
            "sample_ms",
            Json::obj([
                ("count", n(snap.samples.count)),
                ("p50", Json::Num(snap.samples.p50_ns / 1e6)),
                ("p95", Json::Num(snap.samples.p95_ns / 1e6)),
                ("max", Json::Num(ms(snap.samples.max_ns))),
            ]),
        ),
        (
            "hists",
            Json::Obj(
                Hist::ALL
                    .iter()
                    .map(|&h| {
                        let hs = snap.hist(h);
                        let stats = Json::obj([("mean", Json::Num(hs.mean())), ("max", n(hs.max))]);
                        (h.name().to_string(), stats)
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_record_round_trips_through_json() {
        let snap = coopckpt_obs::new_scope().snapshot();
        let rec = journal_record("grid/p1", 412.5, 100, false, 3, &snap);
        let text = rec.to_string();
        let parsed = Json::parse(&text).expect("journal line parses");
        assert_eq!(parsed.get("point").and_then(Json::as_str), Some("grid/p1"));
        assert_eq!(parsed.get("wall_ms").and_then(Json::as_f64), Some(412.5));
        assert_eq!(parsed.get("samples").and_then(Json::as_u64), Some(100));
        assert!(parsed.get("queue").and_then(|q| q.get("inserts")).is_some());
        assert!(parsed
            .get("cache")
            .and_then(|c| c.get("op_lookups"))
            .is_some());
        assert!(parsed
            .get("phases_ms")
            .and_then(|p| p.get("render"))
            .is_some());
        for h in Hist::ALL {
            let stats = parsed.get("hists").and_then(|hs| hs.get(h.name()));
            assert!(stats.and_then(|s| s.get("mean")).is_some(), "{}", h.name());
            assert!(stats.and_then(|s| s.get("max")).is_some(), "{}", h.name());
        }
    }
}
