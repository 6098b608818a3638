//! Deterministic fault injection for crash-safety testing
//! (`DESIGN.md` §14).
//!
//! A [`FaultPlan`] installs simulated failures at *indexed scheduling
//! points*: every time the engine is about to step a configuration, and
//! every time the solver is about to answer a satisfiability query, one
//! point index is drawn from a single shared counter. Whether a fault
//! fires at a point is a **pure function of `(seed, point index)`**
//! (a splitmix-style hash; no global RNG, no time), so a plan replayed
//! under the same schedule injects byte-identical faults — which is what
//! lets the crash/resume battery assert convergence instead of merely
//! observing it.
//!
//! Supported faults:
//!
//! - **path panic** — the next interpreter step panics, exercising the
//!   engines' per-path panic isolation;
//! - **solver unknown** — the next satisfiability query is forced to
//!   `Unknown`, exercising the over-approximating keep-both-branches
//!   semantics;
//! - **sat latency** — the next satisfiability query sleeps first,
//!   exercising deadline/checkpoint interaction with slow solving;
//! - **kill** — the run halts *as if the process died*: a final
//!   checkpoint is written and pending work is **not** drained into the
//!   result (it lives only in the checkpoint file), which is exactly the
//!   state a real crash leaves behind.
//!
//! Every injection is recorded in the plan's log, bumped on the
//! `fault.*` counters, and journaled as a `fault_injected` event.

use gillian_solver::{FaultProbe, SatFault};
use gillian_telemetry::{names, registry, Event, Journal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The kinds of fault a [`FaultPlan`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Panic the next interpreter step (isolated per-path by the engine).
    PathPanic,
    /// Force the next satisfiability query to answer `Unknown`.
    SolverUnknown,
    /// Sleep before answering the next satisfiability query.
    SatLatency,
    /// Simulate a process kill: checkpoint, then stop without draining.
    Kill,
}

impl FaultKind {
    /// The journal/JSONL spelling of this fault kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PathPanic => "path_panic",
            FaultKind::SolverUnknown => "solver_unknown",
            FaultKind::SatLatency => "sat_latency",
            FaultKind::Kill => "kill",
        }
    }
}

// Distinct salts so each fault class draws an independent decision from
// the same point index.
const SALT_PANIC: u64 = 0x70616e6963; // "panic"
const SALT_UNKNOWN: u64 = 0x756e6b6e; // "unkn"
const SALT_LATENCY: u64 = 0x6c617465; // "late"

/// A deterministic fault-injection plan. Install one via
/// `ExploreConfig::faults`; the exploration loop and the solver draw
/// scheduling points from it.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_per_64k: u32,
    unknown_per_64k: u32,
    latency_per_64k: u32,
    latency: Duration,
    kill_at: Option<u64>,
    panic_at: Option<u64>,
    /// The shared scheduling-point counter (engine steps and solver
    /// queries draw from the same sequence).
    points: AtomicU64,
    /// Every injection performed, as `(point, kind)`.
    log: Mutex<Vec<(u64, FaultKind)>>,
}

impl FaultPlan {
    /// A plan that injects nothing until rates or explicit points are set.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Inject a path panic at roughly `per_64k` out of every 65 536
    /// engine scheduling points (deterministically per point).
    pub fn with_panic_rate(mut self, per_64k: u32) -> Self {
        self.panic_per_64k = per_64k;
        self
    }

    /// Force `Unknown` at roughly `per_64k` out of every 65 536 solver
    /// queries.
    pub fn with_unknown_rate(mut self, per_64k: u32) -> Self {
        self.unknown_per_64k = per_64k;
        self
    }

    /// Sleep `latency` before roughly `per_64k` out of every 65 536
    /// solver queries.
    pub fn with_latency(mut self, per_64k: u32, latency: Duration) -> Self {
        self.latency_per_64k = per_64k;
        self.latency = latency;
        self
    }

    /// Simulate a process kill at the first *engine* scheduling point at
    /// or after index `point`. "At or after" because the point counter is
    /// shared with solver queries: a sat query may draw the exact index,
    /// and the kill must still fire (at the next engine draw) rather than
    /// be silently swallowed.
    pub fn kill_at(mut self, point: u64) -> Self {
        self.kill_at = Some(point);
        self
    }

    /// Inject a path panic at engine scheduling point `point`.
    pub fn panic_at(mut self, point: u64) -> Self {
        self.panic_at = Some(point);
        self
    }

    /// Draws the next scheduling-point index.
    pub fn next_point(&self) -> u64 {
        self.points.fetch_add(1, Ordering::Relaxed)
    }

    /// How many scheduling points have been drawn so far.
    pub fn points_drawn(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// The pure per-point decision hash (splitmix64 finalizer over
    /// seed ⊕ point ⊕ salt).
    fn mix(&self, point: u64, salt: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add(point.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ salt;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }

    fn hits(&self, point: u64, salt: u64, per_64k: u32) -> bool {
        per_64k > 0 && (self.mix(point, salt) & 0xffff) < u64::from(per_64k)
    }

    /// The engine-side decision at scheduling point `point` (kill wins
    /// over panic when both would fire).
    pub fn engine_fault(&self, point: u64) -> Option<FaultKind> {
        if self.kill_at.is_some_and(|at| point >= at) {
            return Some(FaultKind::Kill);
        }
        if self.panic_at == Some(point) || self.hits(point, SALT_PANIC, self.panic_per_64k) {
            return Some(FaultKind::PathPanic);
        }
        None
    }

    /// The solver-side decision at scheduling point `point` (forced
    /// `Unknown` wins over latency when both would fire).
    pub fn solver_fault(&self, point: u64) -> Option<(FaultKind, SatFault)> {
        if self.hits(point, SALT_UNKNOWN, self.unknown_per_64k) {
            return Some((FaultKind::SolverUnknown, SatFault::Unknown));
        }
        if self.hits(point, SALT_LATENCY, self.latency_per_64k) {
            return Some((FaultKind::SatLatency, SatFault::Latency(self.latency)));
        }
        None
    }

    /// Records an injection in the plan's log and the `fault.*` counters.
    pub fn record(&self, point: u64, kind: FaultKind) {
        registry().counter(names::FAULT_INJECTED).incr();
        if kind == FaultKind::Kill {
            registry().counter(names::FAULT_KILLS).incr();
        }
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((point, kind));
    }

    /// Every injection so far, as `(point, kind)` in injection order.
    pub fn injections(&self) -> Vec<(u64, FaultKind)> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The injection log rendered one `point:kind` line at a time, sorted
    /// by point index — schedule-independent, so two runs of the same
    /// seeded plan under the same point sequence render identically.
    pub fn rendered_log(&self) -> String {
        let mut inj = self.injections();
        inj.sort_unstable();
        let mut out = String::new();
        for (point, kind) in inj {
            out.push_str(&format!("{point}:{}\n", kind.name()));
        }
        out
    }

    /// A solver fault probe wired to this plan: draws a point per
    /// satisfiability query from the shared counter, records and journals
    /// any injection. The engine installs it on the run's solver.
    pub fn probe(self: &Arc<Self>, journal: Journal) -> FaultProbe {
        let plan = Arc::clone(self);
        Arc::new(move || {
            let point = plan.next_point();
            let (kind, fault) = plan.solver_fault(point)?;
            plan.record(point, kind);
            journal.record_shared(Event::FaultInjected {
                point,
                fault: kind.name(),
            });
            Some(fault)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_in_seed_and_point() {
        let a = FaultPlan::seeded(7).with_panic_rate(2000);
        let b = FaultPlan::seeded(7).with_panic_rate(2000);
        for p in 0..10_000 {
            assert_eq!(a.engine_fault(p), b.engine_fault(p));
        }
        // A different seed gives a different (but still deterministic)
        // injection pattern.
        let c = FaultPlan::seeded(8).with_panic_rate(2000);
        assert!((0..10_000).any(|p| a.engine_fault(p) != c.engine_fault(p)));
    }

    #[test]
    fn explicit_points_override_rates() {
        let plan = FaultPlan::seeded(0).kill_at(3);
        assert_eq!(plan.engine_fault(2), None);
        assert_eq!(plan.engine_fault(3), Some(FaultKind::Kill));
        // A kill is "at or after": a solver query may draw the exact
        // index, so the first engine draw past it must still kill.
        assert_eq!(plan.engine_fault(4), Some(FaultKind::Kill));
        let panic_only = FaultPlan::seeded(0).panic_at(5);
        assert_eq!(panic_only.engine_fault(5), Some(FaultKind::PathPanic));
        assert_eq!(panic_only.engine_fault(4), None);
    }

    #[test]
    fn point_counter_is_shared_and_monotonic() {
        let plan = FaultPlan::seeded(0);
        assert_eq!(plan.next_point(), 0);
        assert_eq!(plan.next_point(), 1);
        assert_eq!(plan.points_drawn(), 2);
    }

    #[test]
    fn rendered_log_sorts_by_point() {
        let plan = FaultPlan::seeded(0);
        plan.record(5, FaultKind::Kill);
        plan.record(2, FaultKind::PathPanic);
        assert_eq!(plan.rendered_log(), "2:path_panic\n5:kill\n");
    }

    #[test]
    fn solver_faults_draw_from_rates() {
        let plan = FaultPlan::seeded(11).with_unknown_rate(65536);
        let (kind, fault) = plan.solver_fault(0).expect("rate 64k/64k always fires");
        assert_eq!(kind, FaultKind::SolverUnknown);
        assert_eq!(fault, SatFault::Unknown);
        let none = FaultPlan::seeded(11);
        assert!(none.solver_fault(0).is_none());
    }
}
