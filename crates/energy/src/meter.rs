//! Per-phase energy metering over a measurement window.

use crate::power::PowerModel;
use coopckpt_des::{Duration, Time};

/// Where a joule of platform energy went.
///
/// The first seven phases are *job-attributed*: they mirror the time
/// ledger's categories one-to-one (each records `q × dt` node-seconds at
/// the phase's per-node draw). The remaining phases are *platform-level*:
/// consumers the node-second ledger has no concept of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Useful computation, at [`PowerModel::compute_w`].
    Compute,
    /// The job's own non-checkpoint I/O at nominal speed, at
    /// [`PowerModel::io_w`].
    RegularIo,
    /// Checkpoint writes (absorbs included), at [`PowerModel::ckpt_w`].
    CkptWrite,
    /// Blocked waiting for the I/O token, at [`PowerModel::idle_w`].
    Blocked,
    /// Transfer time beyond the contention-free duration, at
    /// [`PowerModel::io_w`].
    Dilation,
    /// Recovery reads after a failure, at [`PowerModel::recovery_w`].
    Recovery,
    /// Compute energy voided by a failure (reclassified from
    /// [`Phase::Compute`], priced at [`PowerModel::compute_w`]).
    Rework,
    /// Allocated-to-nobody nodes idling, at [`PowerModel::idle_w`].
    NodeIdle,
    /// Downed nodes, at [`PowerModel::down_w`]. Never accrues under the
    /// paper's hot-spare model; kept for analytic completeness.
    Down,
    /// PFS static draw over the whole window.
    PfsStatic,
    /// PFS active draw over its busy time inside the window.
    PfsActive,
    /// Storage-tier static draw over the window (per configured tier).
    TierStatic,
    /// Storage-tier active draw over data-movement time in the window.
    TierActive,
}

/// Number of job-attributed phases (a prefix of [`Phase::ALL`]).
const JOB_PHASES: usize = 7;

impl Phase {
    /// All phases, reporting order (job-attributed first).
    pub const ALL: [Phase; 13] = [
        Phase::Compute,
        Phase::RegularIo,
        Phase::CkptWrite,
        Phase::Blocked,
        Phase::Dilation,
        Phase::Recovery,
        Phase::Rework,
        Phase::NodeIdle,
        Phase::Down,
        Phase::PfsStatic,
        Phase::PfsActive,
        Phase::TierStatic,
        Phase::TierActive,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::RegularIo => "regular_io",
            Phase::CkptWrite => "ckpt_write",
            Phase::Blocked => "blocked",
            Phase::Dilation => "dilation",
            Phase::Recovery => "recovery",
            Phase::Rework => "rework",
            Phase::NodeIdle => "node_idle",
            Phase::Down => "down",
            Phase::PfsStatic => "pfs_static",
            Phase::PfsActive => "pfs_active",
            Phase::TierStatic => "tier_static",
            Phase::TierActive => "tier_active",
        }
    }

    /// True for energy the baseline (failure-free, checkpoint-free) run
    /// would also spend — the energy mirror of the ledger's useful
    /// categories.
    pub fn is_useful(self) -> bool {
        matches!(self, Phase::Compute | Phase::RegularIo)
    }

    /// True for the phases recorded per job interval (as opposed to the
    /// platform-level channels).
    pub fn is_job_phase(self) -> bool {
        (self.index()) < JOB_PHASES
    }

    fn index(self) -> usize {
        // Fieldless enum in declaration order == `ALL` order (asserted
        // in the tests), so the discriminant is the index — this runs on
        // every metering record, so no O(|ALL|) scan.
        self as usize
    }
}

/// Integrates platform power over simulated time, one accumulator per
/// [`Phase`], clipping every interval to a measurement window (the same
/// window the time ledger uses, so energy and time waste describe the same
/// steady-state segment).
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    model: PowerModel,
    window_start: Time,
    window_end: Time,
    /// Configured storage-tier count (prices [`Phase::TierStatic`]).
    levels: usize,
    joules: [f64; 13],
    /// Node-seconds per job-attributed phase (drives the idle-node
    /// complement in [`finalize`](EnergyMeter::finalize)).
    node_seconds: [f64; JOB_PHASES],
    /// Independently accumulated total: every joule added anywhere is also
    /// added here, in the same order.
    running_total: f64,
    /// PFS cumulative busy time sampled at the window start and end.
    pfs_busy_marks: [Option<Duration>; 2],
    /// Tier cumulative data-movement seconds sampled at the window
    /// boundaries.
    tier_active_marks: [Option<f64>; 2],
    finalized: bool,
}

impl EnergyMeter {
    /// Creates a meter over `[window_start, window_end]` for a platform
    /// with `levels` configured storage tiers.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty or the model invalid.
    pub fn new(window_start: Time, window_end: Time, model: PowerModel, levels: usize) -> Self {
        assert!(
            window_start.is_finite() && window_end.is_finite() && window_start < window_end,
            "invalid measurement window [{window_start}, {window_end}]"
        );
        model.validate().expect("power model must be valid");
        EnergyMeter {
            model,
            window_start,
            window_end,
            levels,
            joules: [0.0; 13],
            node_seconds: [0.0; JOB_PHASES],
            running_total: 0.0,
            pfs_busy_marks: [None, None],
            tier_active_marks: [None, None],
            finalized: false,
        }
    }

    /// The power model in force.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The measurement window.
    pub fn window(&self) -> (Time, Time) {
        (self.window_start, self.window_end)
    }

    fn node_watts(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Compute | Phase::Rework => self.model.compute_w,
            Phase::RegularIo | Phase::Dilation => self.model.io_w,
            Phase::CkptWrite => self.model.ckpt_w,
            Phase::Blocked | Phase::NodeIdle => self.model.idle_w,
            Phase::Recovery => self.model.recovery_w,
            Phase::Down => self.model.down_w,
            _ => unreachable!("platform phases have no per-node draw"),
        }
    }

    fn add(&mut self, phase: Phase, joules: f64) {
        self.joules[phase.index()] += joules;
        self.running_total += joules;
    }

    /// Records `q_nodes` nodes of a job spending `[from, to]` in a
    /// job-attributed phase; the interval is clipped to the window.
    pub fn record(&mut self, phase: Phase, q_nodes: usize, from: Time, to: Time) {
        debug_assert!(phase.is_job_phase(), "{phase:?} is not a job phase");
        debug_assert!(to >= from, "interval end {to} precedes start {from}");
        let a = from.max(self.window_start);
        let b = to.min(self.window_end);
        let secs = b.since(a).as_secs();
        if secs > 0.0 {
            let ns = q_nodes as f64 * secs;
            let j = ns * self.node_watts(phase);
            self.node_seconds[phase.index()] += ns;
            self.add(phase, j);
        }
    }

    /// A failure voided compute progress: moves `node_seconds` worth of
    /// compute energy to [`Phase::Rework`], gated on `at` lying inside the
    /// window — the energy twin of the ledger's `reclassify` call. The
    /// running total is unchanged (the job did draw that energy).
    pub fn reclassify_rework(&mut self, node_seconds: f64, at: Time) {
        debug_assert!(node_seconds >= 0.0, "negative reclassification");
        if at >= self.window_start && at <= self.window_end {
            let j = node_seconds * self.model.compute_w;
            self.joules[Phase::Compute.index()] -= j;
            self.joules[Phase::Rework.index()] += j;
            self.node_seconds[Phase::Compute.index()] -= node_seconds;
            self.node_seconds[Phase::Rework.index()] += node_seconds;
        }
    }

    /// Samples the PFS's cumulative busy time at a window boundary
    /// (`end = false` for the window start). The active-power integral is
    /// the difference between the two samples.
    pub fn mark_pfs_busy(&mut self, busy: Duration, end: bool) {
        self.pfs_busy_marks[usize::from(end)] = Some(busy);
    }

    /// Samples the storage tiers' cumulative data-movement seconds at a
    /// window boundary (`end = false` for the window start).
    pub fn mark_tier_active(&mut self, seconds: f64, end: bool) {
        self.tier_active_marks[usize::from(end)] = Some(seconds);
    }

    /// Closes the platform-level channels: idle-node complement, PFS
    /// static + active, tier static + active. Call exactly once, after the
    /// last [`record`](EnergyMeter::record).
    pub fn finalize(&mut self, platform_nodes: usize) {
        assert!(!self.finalized, "EnergyMeter::finalize called twice");
        self.finalized = true;
        let window = self.window_end.since(self.window_start).as_secs();
        let allocated: f64 = self.node_seconds.iter().sum();
        let idle_ns = (platform_nodes as f64 * window - allocated).max(0.0);
        let idle_j = idle_ns * self.model.idle_w;
        self.add(Phase::NodeIdle, idle_j);
        self.add(Phase::PfsStatic, self.model.pfs_static_w * window);
        let busy = match self.pfs_busy_marks {
            [Some(a), Some(b)] => (b - a).max_zero().as_secs(),
            // Missing marks (no metering events fired): no active charge.
            _ => 0.0,
        };
        self.add(Phase::PfsActive, self.model.pfs_active_w * busy);
        self.add(
            Phase::TierStatic,
            self.model.tier_static_w * window * self.levels as f64,
        );
        let tier_active = match self.tier_active_marks {
            [Some(a), Some(b)] => (b - a).max(0.0),
            _ => 0.0,
        };
        self.add(Phase::TierActive, self.model.tier_active_w * tier_active);
        // Phase::Down: the hot-spare model never accrues downtime.
    }

    /// Joules recorded in one phase.
    pub fn joules(&self, phase: Phase) -> f64 {
        self.joules[phase.index()]
    }

    /// The total power integral: the sum of every phase accumulator, in
    /// reporting order. The per-phase breakdown sums to this *exactly*
    /// (same additions, same order); [`running_total`] tracks the same
    /// quantity independently as a cross-check.
    ///
    /// [`running_total`]: EnergyMeter::running_total
    pub fn total_power_integral(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// The independently maintained total (every `add` also adds here).
    /// Agrees with [`total_power_integral`](EnergyMeter::total_power_integral)
    /// up to floating-point association.
    pub fn running_total(&self) -> f64 {
        self.running_total
    }

    /// Useful energy: the phases a baseline run would also pay.
    pub fn useful_joules(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| p.is_useful())
            .map(|p| self.joules(*p))
            .sum()
    }

    /// Job-attributed waste energy (checkpoints, blocking, dilation,
    /// recovery, rework).
    pub fn wasted_joules(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| p.is_job_phase() && !p.is_useful())
            .map(|p| self.joules(*p))
            .sum()
    }

    /// Platform-level energy outside the job attribution (idle nodes,
    /// PFS, tiers).
    pub fn platform_overhead_joules(&self) -> f64 {
        Phase::ALL
            .iter()
            .filter(|p| !p.is_job_phase())
            .map(|p| self.joules(*p))
            .sum()
    }

    /// The energy mirror of the waste ratio: job-attributed waste energy
    /// over job-attributed total energy. With a zero-differential
    /// [`PowerModel::uniform`] model this equals the time waste ratio.
    pub fn energy_waste_ratio(&self) -> f64 {
        let useful = self.useful_joules();
        let wasted = self.wasted_joules();
        let total = useful + wasted;
        if total <= 0.0 {
            0.0
        } else {
            wasted / total
        }
    }

    /// Per-phase breakdown as `(label, joules)`, reporting order.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        Phase::ALL
            .iter()
            .map(|p| (p.label(), self.joules(*p)))
            .collect()
    }

    /// Condenses the meter into the serializable summary attached to
    /// simulation results.
    pub fn summary(&self) -> EnergySummary {
        EnergySummary {
            breakdown: self.breakdown(),
            total_joules: self.total_power_integral(),
            useful_joules: self.useful_joules(),
            wasted_joules: self.wasted_joules(),
            platform_overhead_joules: self.platform_overhead_joules(),
            energy_waste_ratio: self.energy_waste_ratio(),
        }
    }
}

/// Aggregate energy outcome of one simulation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySummary {
    /// Joules per phase `(label, joules)`, reporting order.
    pub breakdown: Vec<(&'static str, f64)>,
    /// The full platform power integral over the window.
    pub total_joules: f64,
    /// Energy a baseline run would also spend (compute + nominal I/O).
    pub useful_joules: f64,
    /// Job-attributed waste energy.
    pub wasted_joules: f64,
    /// Idle-node, PFS and tier energy outside the job attribution.
    pub platform_overhead_joules: f64,
    /// `wasted / (useful + wasted)` — the energy mirror of the waste
    /// ratio.
    pub energy_waste_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(
            Time::from_secs(100.0),
            Time::from_secs(200.0),
            PowerModel::cielo(),
            2,
        )
    }

    #[test]
    fn phase_index_matches_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?} out of order in Phase::ALL");
        }
    }

    #[test]
    fn records_clip_to_window() {
        let mut m = meter();
        // 10 nodes computing [50, 150]: only [100, 150] counts.
        m.record(
            Phase::Compute,
            10,
            Time::from_secs(50.0),
            Time::from_secs(150.0),
        );
        let expect = 10.0 * 50.0 * PowerModel::cielo().compute_w;
        assert!((m.joules(Phase::Compute) - expect).abs() < 1e-9);
    }

    #[test]
    fn phases_price_their_own_draw() {
        let mut m = meter();
        let t0 = Time::from_secs(100.0);
        let t1 = Time::from_secs(101.0);
        m.record(Phase::CkptWrite, 1, t0, t1);
        m.record(Phase::Blocked, 1, t0, t1);
        m.record(Phase::Recovery, 1, t0, t1);
        let p = PowerModel::cielo();
        assert_eq!(m.joules(Phase::CkptWrite), p.ckpt_w);
        assert_eq!(m.joules(Phase::Blocked), p.idle_w);
        assert_eq!(m.joules(Phase::Recovery), p.recovery_w);
    }

    #[test]
    fn rework_reclassification_conserves_energy() {
        let mut m = meter();
        m.record(
            Phase::Compute,
            4,
            Time::from_secs(100.0),
            Time::from_secs(150.0),
        );
        let before = m.total_power_integral();
        m.reclassify_rework(100.0, Time::from_secs(150.0));
        assert!((m.total_power_integral() - before).abs() < 1e-9);
        assert!((m.joules(Phase::Rework) - 100.0 * PowerModel::cielo().compute_w).abs() < 1e-9);
        // Outside the window: no effect.
        m.reclassify_rework(50.0, Time::from_secs(999.0));
        assert!((m.joules(Phase::Rework) - 100.0 * PowerModel::cielo().compute_w).abs() < 1e-9);
    }

    #[test]
    fn finalize_fills_platform_channels() {
        let mut m = meter();
        // 5 nodes busy the whole 100 s window.
        m.record(
            Phase::Compute,
            5,
            Time::from_secs(100.0),
            Time::from_secs(200.0),
        );
        m.mark_pfs_busy(Duration::from_secs(30.0), false);
        m.mark_pfs_busy(Duration::from_secs(70.0), true);
        m.mark_tier_active(5.0, false);
        m.mark_tier_active(25.0, true);
        m.finalize(8);
        let p = PowerModel::cielo();
        // 3 of 8 nodes idle for the window.
        assert!((m.joules(Phase::NodeIdle) - 3.0 * 100.0 * p.idle_w).abs() < 1e-6);
        assert!((m.joules(Phase::PfsStatic) - 100.0 * p.pfs_static_w).abs() < 1e-6);
        assert!((m.joules(Phase::PfsActive) - 40.0 * p.pfs_active_w).abs() < 1e-6);
        assert!((m.joules(Phase::TierStatic) - 2.0 * 100.0 * p.tier_static_w).abs() < 1e-6);
        assert!((m.joules(Phase::TierActive) - 20.0 * p.tier_active_w).abs() < 1e-6);
        assert_eq!(m.joules(Phase::Down), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total_exactly() {
        let mut m = meter();
        m.record(
            Phase::Compute,
            3,
            Time::from_secs(110.0),
            Time::from_secs(130.0),
        );
        m.record(
            Phase::CkptWrite,
            7,
            Time::from_secs(120.0),
            Time::from_secs(125.0),
        );
        m.record(
            Phase::Blocked,
            3,
            Time::from_secs(130.0),
            Time::from_secs(131.0),
        );
        m.finalize(64);
        let sum: f64 = m.breakdown().iter().map(|(_, j)| j).sum();
        assert_eq!(sum, m.total_power_integral());
        let rel = (m.running_total() - sum).abs() / sum.max(1.0);
        assert!(rel < 1e-12, "running total drifted: {rel}");
    }

    #[test]
    fn uniform_model_ratio_matches_time_ratio() {
        let mut m = EnergyMeter::new(
            Time::from_secs(0.0),
            Time::from_secs(100.0),
            PowerModel::uniform(200.0),
            0,
        );
        // 80 node-seconds useful, 20 node-seconds waste.
        m.record(
            Phase::Compute,
            1,
            Time::from_secs(0.0),
            Time::from_secs(80.0),
        );
        m.record(
            Phase::CkptWrite,
            1,
            Time::from_secs(80.0),
            Time::from_secs(90.0),
        );
        m.record(
            Phase::Blocked,
            1,
            Time::from_secs(90.0),
            Time::from_secs(100.0),
        );
        assert!((m.energy_waste_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_ratio_is_zero() {
        assert_eq!(meter().energy_waste_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finalize called twice")]
    fn double_finalize_panics() {
        let mut m = meter();
        m.finalize(1);
        m.finalize(1);
    }

    #[test]
    #[should_panic(expected = "invalid measurement window")]
    fn rejects_empty_window() {
        EnergyMeter::new(
            Time::from_secs(5.0),
            Time::from_secs(5.0),
            PowerModel::cielo(),
            0,
        );
    }
}
