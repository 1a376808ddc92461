//! Layer replays: one sample's recorded execution trace fed back into the
//! node pool and the PFS model through their public APIs, so each layer
//! can be timed alone on the exact call sequence the engine made.
//!
//! Each replay checks itself. It must reproduce the recorded trace's
//! allocation count, allocated-node total and transfer-completion count,
//! and the trace must be complete: it has to account for every job
//! completion and failure the sample reported. A replay that drifts from
//! the engine, or a truncated trace, is an error, never a timing.

use coopckpt::sim::trace::{TraceEvent, TraceIo};
use coopckpt::sim::InterferenceKind;
use coopckpt::SimResult;
use coopckpt_des::Time;
use coopckpt_io::{DegradedShare, EqualShare, LinearShare, Pfs, TransferId};
use coopckpt_model::{Bandwidth, JobId};
use coopckpt_sched::{AllocId, NodePool};
use std::collections::HashMap;

/// What the engine reported about the recorded sample, independently of
/// its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleTotals {
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Failures injected over the span.
    pub failures_total: u64,
    /// Failures that struck a running job.
    pub failures_hitting_jobs: u64,
}

impl SampleTotals {
    /// The totals of a finished sample.
    pub fn of(result: &SimResult) -> SampleTotals {
        SampleTotals {
            jobs_completed: result.jobs_completed,
            failures_total: result.failures_total,
            failures_hitting_jobs: result.failures_hitting_jobs,
        }
    }
}

/// Checks that `events` account for every completion and failure in
/// `totals`: a truncated or filtered trace cannot pass.
pub fn check_complete(events: &[TraceEvent], totals: &SampleTotals) -> Result<(), String> {
    let mut completed = 0u64;
    let mut failures = 0u64;
    let mut hits = 0u64;
    for e in events {
        match e {
            TraceEvent::JobCompleted { .. } => completed += 1,
            TraceEvent::Failure { victim, .. } => {
                failures += 1;
                hits += u64::from(victim.is_some());
            }
            _ => {}
        }
    }
    let recorded = (completed, failures, hits);
    let reported = (
        totals.jobs_completed,
        totals.failures_total,
        totals.failures_hitting_jobs,
    );
    if recorded != reported {
        return Err(format!(
            "trace is incomplete: it records (completions, failures, job hits) = {recorded:?}, \
             the sample reported {reported:?}"
        ));
    }
    Ok(())
}

/// Counts of one node-pool replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedReplay {
    /// Successful `NodePool::allocate` calls.
    pub allocs: u64,
    /// Nodes handed out over all allocations.
    pub nodes_allocated: u64,
    /// `NodePool::release` calls (completions plus failure victims).
    pub releases: u64,
    /// `NodePool::occupant` lookups (one per failure).
    pub lookups: u64,
}

fn slot<T: Copy>(v: &mut Vec<Option<T>>, job: JobId) -> &mut Option<T> {
    if v.len() <= job.0 {
        v.resize(job.0 + 1, None);
    }
    &mut v[job.0]
}

/// Replays `events` into a fresh `NodePool` of `nodes` nodes: every
/// `JobStarted` allocates, every `JobCompleted` releases, and every
/// `Failure` looks up its node's occupant — which must be the recorded
/// victim's allocation — and releases the victim. The pool hands out the
/// lowest free nodes, so an identical call sequence lands every job on
/// the nodes the engine gave it.
pub fn replay_sched(
    nodes: usize,
    events: &[TraceEvent],
    totals: &SampleTotals,
) -> Result<SchedReplay, String> {
    check_complete(events, totals)?;
    let mut pool = NodePool::new(nodes);
    let mut allocs: Vec<Option<AllocId>> = Vec::new();
    let mut out = SchedReplay::default();
    let (mut recorded_allocs, mut recorded_nodes) = (0u64, 0u64);
    for e in events {
        match *e {
            TraceEvent::JobStarted { job, nodes: q, .. } => {
                recorded_allocs += 1;
                recorded_nodes += q as u64;
                let id = pool
                    .allocate(q)
                    .ok_or_else(|| format!("job {job}: {q} nodes refused by the replayed pool"))?;
                out.allocs += 1;
                out.nodes_allocated += pool.nodes_of(id).map_or(0, <[usize]>::len) as u64;
                *slot(&mut allocs, job) = Some(id);
            }
            TraceEvent::JobCompleted { job, .. } => {
                let id = slot(&mut allocs, job)
                    .take()
                    .ok_or_else(|| format!("job {job} completed without an allocation"))?;
                pool.release(id)
                    .ok_or_else(|| format!("job {job}: allocation already released"))?;
                out.releases += 1;
            }
            TraceEvent::Failure { node, victim, .. } => {
                out.lookups += 1;
                let occupant = pool.occupant(node);
                let expected = match victim {
                    Some(job) => *slot(&mut allocs, job),
                    None => None,
                };
                if occupant != expected {
                    return Err(format!(
                        "failure on node {node}: replayed occupant {occupant:?}, recorded victim \
                         {victim:?} holds {expected:?}"
                    ));
                }
                if let Some(job) = victim {
                    let id = slot(&mut allocs, job).take().expect("checked above");
                    pool.release(id);
                    out.releases += 1;
                }
            }
            _ => {}
        }
    }
    if (out.allocs, out.nodes_allocated) != (recorded_allocs, recorded_nodes) {
        return Err(format!(
            "node-pool replay made {} allocations of {} nodes; the trace records {} of {}",
            out.allocs, out.nodes_allocated, recorded_allocs, recorded_nodes
        ));
    }
    Ok(out)
}

/// Counts of one PFS replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoReplay {
    /// `Pfs::start` calls.
    pub starts: u64,
    /// Transfers the replayed PFS completed, each at its recorded instant.
    pub transfers: u64,
    /// `Pfs::cancel` calls (transfers of failure victims).
    pub cancels: u64,
}

/// Replays `events` into a fresh `Pfs` of `bandwidth` under
/// `interference`. `IoStarted` starts a transfer weighted by the job's
/// node count; a transfer ends where the trace records it (`IoCompleted`,
/// or `CheckpointDurable` for a checkpoint commit), and there the replay
/// advances the PFS and takes its completions, which must include that
/// transfer; a failure cancels its victim's transfer in flight.
///
/// Storage tiers are not modelled: a trace with tier events is rejected.
pub fn replay_io(
    bandwidth: Bandwidth,
    interference: InterferenceKind,
    events: &[TraceEvent],
    totals: &SampleTotals,
) -> Result<IoReplay, String> {
    check_complete(events, totals)?;
    match interference {
        InterferenceKind::Linear => replay_io_on(Pfs::new(bandwidth, LinearShare), events),
        InterferenceKind::Degraded(a) => {
            replay_io_on(Pfs::new(bandwidth, DegradedShare::new(a)), events)
        }
        InterferenceKind::Equal => replay_io_on(Pfs::new(bandwidth, EqualShare), events),
    }
}

fn replay_io_on(mut pfs: Pfs<JobId>, events: &[TraceEvent]) -> Result<IoReplay, String> {
    let mut weight: Vec<Option<usize>> = Vec::new();
    let mut active: HashMap<JobId, (TransferId, TraceIo)> = HashMap::new();
    let mut finished: HashMap<JobId, Time> = HashMap::new();
    let mut out = IoReplay::default();
    let mut recorded = 0u64;
    let mut complete = |pfs: &mut Pfs<JobId>,
                        active: &mut HashMap<JobId, (TransferId, TraceIo)>,
                        at: Time,
                        job: JobId|
     -> Result<(), String> {
        pfs.advance(at);
        for done in pfs.take_completed() {
            finished.insert(done.meta, done.finished);
        }
        match finished.remove(&job) {
            Some(t) if t == at => {
                active.remove(&job);
                Ok(())
            }
            Some(t) => Err(format!(
                "job {job}: replayed transfer completed at {t}, recorded at {at}"
            )),
            None => Err(format!(
                "job {job}: transfer recorded complete at {at} is still in flight in the replay"
            )),
        }
    };
    for e in events {
        match *e {
            TraceEvent::JobStarted { job, nodes, .. } => *slot(&mut weight, job) = Some(nodes),
            TraceEvent::IoStarted {
                at,
                job,
                kind,
                volume,
            } => {
                let q = slot(&mut weight, job)
                    .ok_or_else(|| format!("job {job}: I/O before the job started"))?;
                if active.contains_key(&job) {
                    return Err(format!("job {job}: second transfer while one is in flight"));
                }
                let id = pfs.start(at, volume, q as f64, job);
                out.starts += 1;
                active.insert(job, (id, kind));
            }
            TraceEvent::IoCompleted {
                at, job, volume, ..
            } => {
                // The engine completes zero-volume I/O on the spot, without
                // a PFS transfer (and without an `IoStarted` record).
                if volume.as_bytes() <= 0.0 && !active.contains_key(&job) {
                    continue;
                }
                recorded += 1;
                complete(&mut pfs, &mut active, at, job)?;
                out.transfers += 1;
            }
            TraceEvent::CheckpointDurable { at, job, .. } => {
                if matches!(active.get(&job), Some((_, TraceIo::Checkpoint))) {
                    recorded += 1;
                    complete(&mut pfs, &mut active, at, job)?;
                    out.transfers += 1;
                }
            }
            TraceEvent::Failure {
                at,
                victim: Some(job),
                ..
            } => {
                if let Some((id, _)) = active.remove(&job) {
                    pfs.cancel(at, id).ok_or_else(|| {
                        format!("job {job}: failure at {at} cancels a transfer the replay finished")
                    })?;
                    out.cancels += 1;
                }
            }
            TraceEvent::TierAbsorb { .. }
            | TraceEvent::TierDrain { .. }
            | TraceEvent::TierSpill { .. }
            | TraceEvent::TierRestore { .. } => {
                return Err("the PFS replay does not model storage tiers".to_string());
            }
            _ => {}
        }
    }
    if out.transfers != recorded {
        return Err(format!(
            "PFS replay completed {} transfers; the trace records {recorded}",
            out.transfers
        ));
    }
    if let Some((job, t)) = finished.iter().next() {
        return Err(format!(
            "job {job}: the replay completed a transfer at {t} the trace never records"
        ));
    }
    Ok(out)
}
