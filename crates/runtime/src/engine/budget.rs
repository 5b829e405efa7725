//! Per-request execution budgets: a cancellation flag (optionally chained
//! to a parent flag, e.g. a service's eviction flag) plus an optional
//! absolute deadline on the execution clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qce_strategy::exec::PruneReason;

use crate::clock::Clock;
use crate::request::QosClass;

/// Full attribution of a budget prune: *why* the walk stopped early,
/// *which traffic class* the request carried, and *how much deadline
/// budget remained* at the instant the prune fired.
///
/// A bare [`PruneReason`] is ambiguous in telemetry: a `Cancelled` with
/// most of its deadline left is an eviction; a `Cancelled` that raced a
/// nearly-expired deadline tells a different story. Recording the
/// remaining budget at prune time makes deadline-vs-cancel attribution
/// unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneDetail {
    /// Why the budget pruned (cancellation outranks the deadline).
    pub reason: PruneReason,
    /// Traffic class of the pruned request.
    pub class: QosClass,
    /// Deadline budget remaining when the prune fired: `None` when the
    /// budget had no deadline, `Some(ZERO)` when the deadline itself
    /// tripped, and a positive remainder when a cancellation cut in ahead
    /// of the deadline.
    pub remaining: Option<Duration>,
}

/// The execution budget of one service request.
///
/// A budget is checked at every point the engine's walker already checks
/// the global short-circuit flag — before starting a leaf invocation and
/// between sequential legs — so a tripped budget prunes exactly the legs
/// that have not started yet. Legs already in flight run to completion and
/// are charged in full, preserving the paper's Assumption 2.
///
/// Budgets are cheap to clone (two `Arc`s and a `Copy` deadline); clones
/// share the same cancellation flag. The budget's own flag is created by
/// its first `clone` or `cancel`, so a budget that sees neither allocates
/// nothing.
///
/// # Examples
///
/// ```
/// use qce_runtime::{engine::Budget, PruneReason, VirtualClock};
///
/// let (clock, budget) = (VirtualClock::new(), Budget::unlimited());
/// assert_eq!(budget.prune(&clock), None);
/// budget.cancel();
/// assert_eq!(budget.prune(&clock), Some(PruneReason::Cancelled));
/// ```
#[derive(Debug)]
pub struct Budget {
    /// Absolute deadline on the execution clock (`clock.now() >= deadline`
    /// prunes), or `None` for no deadline.
    deadline: Option<Duration>,
    /// Traffic class of the request this budget belongs to, attached to
    /// every prune for attribution.
    class: QosClass,
    /// This request's own cancellation flag, created by the first `clone`
    /// (which shares it) or `cancel`: until then nothing can have set it.
    cancel: OnceLock<Arc<AtomicBool>>,
    /// An upstream cancellation flag shared with other requests (e.g. the
    /// owning service's eviction flag); either flag cancels the budget.
    parent: Option<Arc<AtomicBool>>,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            deadline: self.deadline,
            class: self.class,
            cancel: OnceLock::from(Arc::clone(self.flag())),
            parent: self.parent.clone(),
        }
    }
}

impl Budget {
    /// A budget with no deadline and no upstream cancellation source.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            class: QosClass::default(),
            cancel: OnceLock::new(),
            parent: None,
        }
    }

    /// This budget's own cancellation flag, created on first use.
    fn flag(&self) -> &Arc<AtomicBool> {
        self.cancel.get_or_init(Arc::default)
    }

    /// Tags the budget with the request's traffic class, carried into
    /// every [`PruneDetail`] this budget produces.
    #[must_use]
    pub fn with_class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// The traffic class of the request this budget belongs to.
    #[must_use]
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Sets an absolute deadline (a [`Clock::now`] reading at or past
    /// `deadline` prunes all not-yet-started legs).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Chains an upstream cancellation flag: the budget counts as
    /// cancelled when either its own flag or `parent` is set.
    #[must_use]
    pub fn with_parent_flag(mut self, parent: Arc<AtomicBool>) -> Self {
        self.parent = Some(parent);
        self
    }

    /// The absolute deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Cancels the request: every leg that has not started yet is pruned.
    pub fn cancel(&self) {
        self.flag().store(true, Ordering::SeqCst);
    }

    /// Whether this budget (or its upstream parent) has been cancelled.
    #[must_use]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .get()
            .is_some_and(|own| own.load(Ordering::SeqCst))
            || self
                .parent
                .as_ref()
                .is_some_and(|p| p.load(Ordering::SeqCst))
    }

    /// Why the budget would prune right now, if it would. The clock is
    /// only consulted when a deadline is set, so unlimited budgets add no
    /// clock traffic to the walk.
    #[must_use]
    pub fn prune(&self, clock: &dyn Clock) -> Option<PruneReason> {
        self.prune_detail(clock).map(|detail| detail.reason)
    }

    /// As [`Budget::prune`], with full attribution: the reason, the
    /// request's class, and the deadline budget remaining at the instant
    /// the prune fired.
    #[must_use]
    pub fn prune_detail(&self, clock: &dyn Clock) -> Option<PruneDetail> {
        if self.is_cancelled() {
            return Some(PruneDetail {
                reason: PruneReason::Cancelled,
                class: self.class,
                remaining: self.deadline.map(|d| d.saturating_sub(clock.now())),
            });
        }
        match self.deadline {
            Some(deadline) if clock.now() >= deadline => Some(PruneDetail {
                reason: PruneReason::DeadlineExceeded,
                class: self.class,
                remaining: Some(Duration::ZERO),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn unlimited_budget_never_prunes() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited();
        assert_eq!(budget.prune(&clock), None);
        clock.advance(Duration::from_secs(3600));
        assert_eq!(budget.prune(&clock), None);
    }

    #[test]
    fn cancel_prunes_immediately() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited();
        budget.cancel();
        assert_eq!(budget.prune(&clock), Some(PruneReason::Cancelled));
    }

    #[test]
    fn clones_share_the_cancel_flag() {
        let budget = Budget::unlimited();
        let clone = budget.clone();
        clone.cancel();
        assert!(budget.is_cancelled());
    }

    /// The flag is created lazily, by whichever of `clone` and `cancel`
    /// comes first; either way, after a `clone` a `cancel` on either copy
    /// cancels both — and every later clone.
    #[test]
    fn after_clone_a_cancel_on_either_copy_cancels_both() {
        for cancel_the_original in [false, true] {
            let original = Budget::unlimited().with_deadline(Duration::from_millis(5));
            assert!(original.cancel.get().is_none(), "nothing allocated yet");
            let copy = original.clone();
            assert!(!original.is_cancelled() && !copy.is_cancelled());
            if cancel_the_original {
                original.cancel();
            } else {
                copy.cancel();
            }
            assert!(original.is_cancelled(), "{cancel_the_original}");
            assert!(copy.is_cancelled(), "{cancel_the_original}");
            assert!(original.clone().is_cancelled());
            assert_eq!(copy.deadline(), Some(Duration::from_millis(5)));
        }
        // A budget cancelled before its first clone hands the set flag on.
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        assert!(cancelled.clone().is_cancelled());
    }

    #[test]
    fn parent_flag_cancels_all_children() {
        let clock = VirtualClock::new();
        let evicted = Arc::new(AtomicBool::new(false));
        let a = Budget::unlimited().with_parent_flag(Arc::clone(&evicted));
        let b = Budget::unlimited().with_parent_flag(Arc::clone(&evicted));
        assert_eq!(a.prune(&clock), None);
        evicted.store(true, Ordering::SeqCst);
        assert_eq!(a.prune(&clock), Some(PruneReason::Cancelled));
        assert_eq!(b.prune(&clock), Some(PruneReason::Cancelled));
    }

    #[test]
    fn deadline_prunes_at_and_after_the_instant() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(10));
        assert_eq!(budget.prune(&clock), None);
        clock.advance(Duration::from_millis(10));
        assert_eq!(budget.prune(&clock), Some(PruneReason::DeadlineExceeded));
        clock.advance(Duration::from_millis(5));
        assert_eq!(budget.prune(&clock), Some(PruneReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_outranks_the_deadline() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        budget.cancel();
        clock.advance(Duration::from_millis(1));
        assert_eq!(budget.prune(&clock), Some(PruneReason::Cancelled));
    }

    #[test]
    fn prune_detail_attributes_class_and_remaining_budget() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited()
            .with_class(QosClass::Critical)
            .with_deadline(Duration::from_millis(10));
        clock.advance(Duration::from_millis(4));
        budget.cancel();
        let detail = budget.prune_detail(&clock).unwrap();
        assert_eq!(detail.reason, PruneReason::Cancelled);
        assert_eq!(detail.class, QosClass::Critical);
        assert_eq!(
            detail.remaining,
            Some(Duration::from_millis(6)),
            "a cancellation records how much deadline budget was left"
        );
    }

    #[test]
    fn deadline_prune_detail_reports_zero_remaining() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited()
            .with_class(QosClass::Scavenger)
            .with_deadline(Duration::from_millis(3));
        clock.advance(Duration::from_millis(5));
        let detail = budget.prune_detail(&clock).unwrap();
        assert_eq!(detail.reason, PruneReason::DeadlineExceeded);
        assert_eq!(detail.class, QosClass::Scavenger);
        assert_eq!(detail.remaining, Some(Duration::ZERO));
    }

    #[test]
    fn cancelled_unlimited_budget_has_no_remaining() {
        let clock = VirtualClock::new();
        let budget = Budget::unlimited();
        budget.cancel();
        let detail = budget.prune_detail(&clock).unwrap();
        assert_eq!(detail.remaining, None, "no deadline, no remainder");
        assert_eq!(detail.class, QosClass::Interactive, "default class");
    }
}
