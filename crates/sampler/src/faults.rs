//! Deterministic fault injection for the resilience test-suite.
//!
//! A [`FaultPlan`] describes a reproducible failure scenario: worker panics
//! at chosen batch item indices, and a countdown of forced draw failures
//! (standing in for oracle/LP breakage). It is a plain value with no
//! process-global state. Whoever owns a plan decides where it applies —
//! `cdb_core::SpatialDatabase` carries one and its item runner consults it:
//!
//! * before each draw, [`FaultPlan::take_forced_draw_failure`] fails the
//!   draw while the countdown is positive;
//! * inside each fan-out task, [`FaultPlan::inject_worker_panic`] panics
//!   when the plan injects a panic at that item.
//!
//! An empty plan (the default) answers both checks with a set lookup and an
//! atomic load: it consumes no randomness and touches no query state, so a
//! query under an empty plan is bitwise identical to one under no plan at
//! all (gated by `tests/resilience.rs`). Because the plan travels with its
//! owner, a plan armed for one database can never fire inside a query on
//! another.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic description of the faults to inject.
///
/// The panic items are immutable; the only interior state is the
/// forced-failure countdown, which concurrent batch workers drain as one
/// shared counter.
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_items: BTreeSet<usize>,
    forced_draw_failures: AtomicU64,
}

impl FaultPlan {
    /// Creates an empty plan, which injects nothing.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Injects a worker panic when batch item `item` is about to run.
    pub fn with_worker_panic_at(mut self, item: usize) -> Self {
        self.panic_items.insert(item);
        self
    }

    /// Forces the next `count` draws to fail (a stand-in for oracle/LP
    /// failures deep in the sampler).
    pub fn with_forced_draw_failures(self, count: u64) -> Self {
        self.forced_draw_failures.store(count, Ordering::SeqCst);
        self
    }

    /// Panics with an `"injected fault: …"` payload if the plan injects a
    /// worker panic at `item`. Call it inside a fan-out task, where the
    /// worker's panic boundary contains it.
    #[inline]
    pub fn inject_worker_panic(&self, item: usize) {
        if self.panic_items.contains(&item) {
            panic!("injected fault: worker panic at item {item}");
        }
    }

    /// Returns `true`, consuming one countdown tick, while the plan still
    /// forces draw failures.
    #[inline]
    pub fn take_forced_draw_failure(&self) -> bool {
        self.forced_draw_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        plan.inject_worker_panic(0);
        assert!(!plan.take_forced_draw_failure());
    }

    #[test]
    fn forced_failures_count_down() {
        let plan = FaultPlan::new().with_forced_draw_failures(2);
        assert!(plan.take_forced_draw_failure());
        assert!(plan.take_forced_draw_failure());
        assert!(!plan.take_forced_draw_failure());
    }

    #[test]
    #[should_panic(expected = "injected fault: worker panic at item 3")]
    fn worker_panic_fires_at_its_item_only() {
        let plan = FaultPlan::new().with_worker_panic_at(3);
        plan.inject_worker_panic(2);
        plan.inject_worker_panic(3);
    }
}
