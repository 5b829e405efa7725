//! The gateway's strategy executor: real threads, real invocations.
//!
//! Executes an execution strategy against resolved providers with the
//! paper's semantics:
//!
//! * `-` invokes operands in order, falling through on failure;
//! * `*` invokes operands on parallel threads; the first success wins;
//! * a success anywhere **short-circuits** the strategy: invocations that
//!   have not started yet are abandoned, invocations already in flight
//!   cannot be recalled (Assumption 2: their full cost is charged and the
//!   collector still records their eventual completion).
//!
//! The executor joins every spawned thread before returning, so cost
//! accounting and collector state are complete and race-free when the
//! caller sees the outcome; the reported `latency` is the instant the
//! winning invocation completed, not the join time.
//!
//! Since the unification of the strategy walkers, these entry points are
//! thin wrappers over [`engine::execute_scoped`](crate::engine): the
//! engine walks the same tree with [`CompletionPolicy::FirstSuccess`] and
//! an unlimited [`Budget`], which is bit-for-bit
//! the historical behaviour. Deadline- or cancellation-scoped execution,
//! and pooled (rather than per-leg scoped) threading, are available
//! through [`ExecutionEngine`](crate::engine::ExecutionEngine).

use std::sync::Arc;
use std::time::Duration;

use qce_strategy::{CompletionPolicy, Strategy};

use crate::clock::{Clock, WallClock};
use crate::collector::Collector;
use crate::device::Provider;
use crate::engine::{self, Budget, Completion};
use crate::message::{Invocation, InvocationOutcome, RuntimeError};

/// The observable result of executing a strategy for one service request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOutcome {
    /// Whether any microservice succeeded.
    pub success: bool,
    /// Payload of the earliest successful invocation.
    pub payload: Option<Vec<u8>>,
    /// Time from request start to the earliest success (or, on total
    /// failure, to the completion of the last invocation).
    pub latency: Duration,
    /// Total cost charged across all started invocations (Assumption 2).
    pub cost: f64,
    /// Every invocation that started, in completion order.
    pub invocations: Vec<InvocationOutcome>,
}

impl From<engine::EngineOutcome> for ServiceOutcome {
    fn from(outcome: engine::EngineOutcome) -> Self {
        let (success, payload) = match outcome.completion {
            Completion::First { success, payload } => (success, payload),
            Completion::Agreement {
                agreed, payload, ..
            } => (agreed, payload),
        };
        ServiceOutcome {
            success,
            payload,
            latency: outcome.latency,
            cost: outcome.cost,
            invocations: outcome.invocations,
        }
    }
}

/// Executes `strategy` over `providers` (indexed by
/// [`MsId`](qce_strategy::MsId)), recording completed invocations into
/// `collector` when provided.
///
/// # Errors
///
/// Returns [`RuntimeError::NoProvider`] if the strategy references an index
/// with no resolved provider.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use qce_runtime::{execute_strategy, Invocation, Provider, SimulatedProvider};
/// use qce_strategy::Strategy;
///
/// let fast = SimulatedProvider::builder("d1/fast", "fast")
///     .latency(Duration::from_millis(2))
///     .cost(10.0)
///     .build();
/// let slow = SimulatedProvider::builder("d2/slow", "slow")
///     .latency(Duration::from_millis(50))
///     .cost(20.0)
///     .build();
/// let providers: Vec<Arc<dyn Provider>> = vec![fast, slow];
///
/// let outcome = execute_strategy(
///     &Strategy::parse("a*b")?,
///     &providers,
///     &Invocation::new(1, "", vec![]),
///     None,
/// )?;
/// assert!(outcome.success);
/// assert_eq!(outcome.cost, 30.0); // both started: both charged
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn execute_strategy(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    collector: Option<&Collector>,
) -> Result<ServiceOutcome, RuntimeError> {
    execute_strategy_with_clock(strategy, providers, request, collector, &WallClock::new())
}

/// [`execute_strategy`] on an explicit [`Clock`], allowing deterministic
/// virtual-time execution (see [`VirtualClock`](crate::VirtualClock)).
///
/// The calling thread is registered as a clock worker for the duration of
/// the call, and every thread spawned for a parallel node is registered
/// before it starts, so a virtual clock only advances when the whole
/// execution is blocked.
///
/// # Errors
///
/// As [`execute_strategy`].
pub fn execute_strategy_with_clock(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    collector: Option<&Collector>,
    clock: &dyn Clock,
) -> Result<ServiceOutcome, RuntimeError> {
    engine::execute_scoped(
        strategy,
        providers,
        request,
        collector,
        clock,
        None,
        &Budget::unlimited(),
        CompletionPolicy::FirstSuccess,
    )
    .map(ServiceOutcome::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimulatedProvider;
    use qce_strategy::Strategy;
    use std::sync::atomic::Ordering;

    fn provider(id: &str, latency_ms: u64, reliability: f64, cost: f64) -> Arc<dyn Provider> {
        SimulatedProvider::builder(id, id)
            .latency(Duration::from_millis(latency_ms))
            .reliability(reliability)
            .cost(cost)
            .seed(1)
            .build()
    }

    fn req() -> Invocation {
        Invocation::new(1, "", vec![])
    }

    #[test]
    fn single_provider_success() {
        let providers = vec![provider("a", 5, 1.0, 10.0)];
        let out =
            execute_strategy(&Strategy::parse("a").unwrap(), &providers, &req(), None).unwrap();
        assert!(out.success);
        assert_eq!(out.cost, 10.0);
        assert_eq!(out.invocations.len(), 1);
        assert!(out.latency >= Duration::from_millis(4));
    }

    #[test]
    fn missing_provider_is_an_error() {
        let providers = vec![provider("a", 1, 1.0, 1.0)];
        assert!(matches!(
            execute_strategy(&Strategy::parse("a*b").unwrap(), &providers, &req(), None),
            Err(RuntimeError::NoProvider { .. })
        ));
    }

    #[test]
    fn failover_skips_backup_on_success() {
        let providers = vec![provider("a", 2, 1.0, 10.0), provider("b", 2, 1.0, 99.0)];
        let out =
            execute_strategy(&Strategy::parse("a-b").unwrap(), &providers, &req(), None).unwrap();
        assert!(out.success);
        assert_eq!(out.cost, 10.0, "backup never invoked");
        assert_eq!(out.invocations.len(), 1);
    }

    #[test]
    fn failover_uses_backup_on_failure() {
        let providers = vec![provider("a", 2, 0.0, 10.0), provider("b", 2, 1.0, 20.0)];
        let out =
            execute_strategy(&Strategy::parse("a-b").unwrap(), &providers, &req(), None).unwrap();
        assert!(out.success);
        assert_eq!(out.cost, 30.0);
        assert_eq!(out.invocations.len(), 2);
        assert!(!out.invocations[0].success);
        assert!(out.invocations[1].success);
    }

    #[test]
    fn total_failure_reports_failure() {
        let providers = vec![provider("a", 1, 0.0, 10.0), provider("b", 1, 0.0, 20.0)];
        let out =
            execute_strategy(&Strategy::parse("a*b").unwrap(), &providers, &req(), None).unwrap();
        assert!(!out.success);
        assert!(out.payload.is_none());
        assert_eq!(out.cost, 30.0);
    }

    #[test]
    fn parallel_returns_fastest_success() {
        let providers = vec![
            provider("slow", 60, 1.0, 10.0),
            provider("fast", 2, 1.0, 20.0),
        ];
        let out =
            execute_strategy(&Strategy::parse("a*b").unwrap(), &providers, &req(), None).unwrap();
        assert!(out.success);
        // The fast provider's completion defines the latency even though we
        // join the slow one before returning.
        assert!(
            out.latency < Duration::from_millis(40),
            "latency {:?}",
            out.latency
        );
        assert_eq!(out.cost, 30.0, "both started — both charged");
        assert_eq!(
            out.invocations.len(),
            2,
            "loser still completes and records"
        );
    }

    #[test]
    fn short_circuit_prevents_new_invocations() {
        // (a-b)*c: a fails slowly (30 ms), c succeeds fast (2 ms). By the
        // time a fails, the strategy is won: b must never start.
        let providers = vec![
            provider("a", 30, 0.0, 10.0),
            provider("b", 1, 1.0, 99.0),
            provider("c", 2, 1.0, 20.0),
        ];
        let out = execute_strategy(
            &Strategy::parse("(a-b)*c").unwrap(),
            &providers,
            &req(),
            None,
        )
        .unwrap();
        assert!(out.success);
        assert_eq!(out.cost, 30.0, "b was cancelled before starting");
        assert_eq!(out.invocations.len(), 2);
        assert!(out.invocations.iter().all(|i| i.provider_id != "b"));
    }

    #[test]
    fn sequential_fallback_runs_when_parallel_loser_needed() {
        // (a-b)*c: c fails fast, a fails fast → b runs and succeeds.
        let providers = vec![
            provider("a", 2, 0.0, 10.0),
            provider("b", 2, 1.0, 15.0),
            provider("c", 2, 0.0, 20.0),
        ];
        let out = execute_strategy(
            &Strategy::parse("(a-b)*c").unwrap(),
            &providers,
            &req(),
            None,
        )
        .unwrap();
        assert!(out.success);
        assert_eq!(out.cost, 45.0);
        assert_eq!(out.invocations.len(), 3);
    }

    #[test]
    fn payload_comes_from_the_winner() {
        let fast = SimulatedProvider::builder("fast", "fast")
            .latency(Duration::from_millis(2))
            .response(vec![1])
            .build();
        let slow = SimulatedProvider::builder("slow", "slow")
            .latency(Duration::from_millis(40))
            .response(vec![2])
            .build();
        let providers: Vec<Arc<dyn Provider>> = vec![slow, fast];
        // a = slow, b = fast; parallel → fast's payload wins.
        let out =
            execute_strategy(&Strategy::parse("a*b").unwrap(), &providers, &req(), None).unwrap();
        assert_eq!(out.payload, Some(vec![1]));
    }

    #[test]
    fn collector_records_every_completed_invocation() {
        let collector = Collector::new(100);
        let providers = vec![provider("a", 1, 0.0, 10.0), provider("b", 1, 1.0, 20.0)];
        let out = execute_strategy(
            &Strategy::parse("a-b").unwrap(),
            &providers,
            &req(),
            Some(&collector),
        )
        .unwrap();
        assert!(out.success);
        assert_eq!(collector.observation_count("a"), 1);
        assert_eq!(collector.observation_count("b"), 1);
        assert_eq!(collector.stats("a").unwrap().success_rate, 0.0);
        assert_eq!(collector.stats("b").unwrap().success_rate, 1.0);
    }

    #[test]
    fn five_way_parallel_completes() {
        let providers: Vec<Arc<dyn Provider>> = (0..5)
            .map(|i| provider(&format!("p{i}"), 2 + i, 0.5, 1.0))
            .collect();
        let out = execute_strategy(
            &Strategy::parse("a*b*c*d*e").unwrap(),
            &providers,
            &req(),
            None,
        )
        .unwrap();
        assert_eq!(out.invocations.len(), 5, "all started simultaneously");
    }

    #[test]
    fn nested_strategy_executes() {
        let providers: Vec<Arc<dyn Provider>> = vec![
            provider("a", 2, 0.0, 1.0),
            provider("b", 2, 0.0, 1.0),
            provider("c", 2, 1.0, 1.0),
            provider("d", 2, 0.0, 1.0),
            provider("e", 2, 0.0, 1.0),
        ];
        let out = execute_strategy(
            &Strategy::parse("c*(a*b-d*e)").unwrap(),
            &providers,
            &req(),
            None,
        )
        .unwrap();
        assert!(out.success);
    }

    #[test]
    fn outcome_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ServiceOutcome>();
    }

    /// Regression test: once the strategy is won, a `Seq` chain must not
    /// descend into its remaining legs. Descending into the `b*c` leg is
    /// observable as extra [`Clock::reserve_worker`] calls: the engine
    /// reserves one worker slot per started blocking leaf (the spy hides
    /// the providers' own clock, so every leaf takes the blocking path).
    /// Only `a` and `d` start — exactly 2 reserves — and the loser's
    /// unreached legs are never invoked or charged.
    #[test]
    fn cancelled_seq_leg_never_descends_into_parallel_legs() {
        use crate::clock::VirtualClock;
        use std::sync::atomic::AtomicUsize;

        #[derive(Debug)]
        struct ReserveSpy {
            inner: Arc<VirtualClock>,
            reserves: AtomicUsize,
            releases: AtomicUsize,
        }

        impl Clock for ReserveSpy {
            fn now(&self) -> Duration {
                self.inner.now()
            }
            fn sleep(&self, duration: Duration) {
                self.inner.sleep(duration);
            }
            fn enter_worker(&self) {
                self.inner.enter_worker();
            }
            fn reserve_worker(&self) {
                self.reserves.fetch_add(1, Ordering::SeqCst);
                self.inner.reserve_worker();
            }
            fn adopt_worker(&self) {
                self.inner.adopt_worker();
            }
            fn exit_worker(&self) {
                self.inner.exit_worker();
            }
            fn disown_worker(&self) {
                self.inner.disown_worker();
            }
            fn release_worker(&self) {
                self.releases.fetch_add(1, Ordering::SeqCst);
                self.inner.release_worker();
            }
            fn enter_passive(&self) {
                self.inner.enter_passive();
            }
            fn exit_passive(&self) {
                self.inner.exit_passive();
            }
            fn thread_is_worker(&self) -> bool {
                self.inner.thread_is_worker()
            }
            fn sleep_until_or(&self, deadline: Option<Duration>, ready: &dyn Fn() -> bool) {
                self.inner.sleep_until_or(deadline, ready);
            }
            fn notify_sleepers(&self) {
                self.inner.notify_sleepers();
            }
        }

        let clock = Arc::new(VirtualClock::new());
        let spy = ReserveSpy {
            inner: Arc::clone(&clock),
            reserves: AtomicUsize::new(0),
            releases: AtomicUsize::new(0),
        };
        // (a-(b*c))*d in virtual time: d wins at t=2 ms, a fails at
        // t=30 ms. By the time the Seq leg moves past a, the strategy is
        // won — b*c must not start.
        let timed = |id: &str, latency_ms: u64, reliability: f64, cost: f64| -> Arc<dyn Provider> {
            SimulatedProvider::builder(id, id)
                .latency(Duration::from_millis(latency_ms))
                .reliability(reliability)
                .cost(cost)
                .seed(1)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build()
        };
        let providers = vec![
            timed("a", 30, 0.0, 10.0),
            timed("b", 1, 1.0, 99.0),
            timed("c", 1, 1.0, 99.0),
            timed("d", 2, 1.0, 20.0),
        ];
        let out = execute_strategy_with_clock(
            &Strategy::parse("(a-(b*c))*d").unwrap(),
            &providers,
            &req(),
            None,
            &spy,
        )
        .unwrap();
        assert!(out.success);
        assert_eq!(
            out.cost, 30.0,
            "only a and d charged; the unreached b*c leg costs nothing"
        );
        assert_eq!(out.invocations.len(), 2);
        assert!(
            out.invocations
                .iter()
                .all(|i| i.provider_id != "b" && i.provider_id != "c"),
            "unreached legs must never be invoked"
        );
        // Reservations cover the two started leaves (a, d) plus the event
        // core's wake-signal holds, whose count depends on driver timing —
        // so the discipline is checked as balance: every reserved slot is
        // returned, and (per the invocation asserts above) the cancelled
        // Seq leg never started a leaf that could reserve one.
        let reserves = spy.reserves.load(Ordering::SeqCst);
        let releases = spy.releases.load(Ordering::SeqCst);
        assert!(reserves >= 2, "the two started leaves (a, d) reserve slots");
        assert_eq!(
            reserves, releases,
            "every reserved worker slot must be released by walk teardown"
        );
    }

    #[test]
    fn panicking_provider_propagates_and_releases_the_clock() {
        use crate::clock::VirtualClock;
        use crate::device::FnProvider;

        // a = panics immediately, b = sleeps 10 ms of virtual time. The
        // panic must reach the caller (not be masked as a failed node) and
        // must release the worker slot, or the next sleeper on this clock
        // would hang forever.
        let clock = Arc::new(VirtualClock::new());
        let bomb: Arc<dyn Provider> = FnProvider::new(
            "bomb",
            "cap",
            1.0,
            |_| -> Result<Vec<u8>, crate::message::InvokeError> { panic!("provider exploded") },
        );
        let sleeper = SimulatedProvider::builder("sleeper", "cap")
            .latency(Duration::from_millis(10))
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        let providers: Vec<Arc<dyn Provider>> = vec![bomb, sleeper];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_strategy_with_clock(
                &Strategy::parse("a*b").unwrap(),
                &providers,
                &req(),
                None,
                &*clock,
            )
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // Worker accounting unwound: a fresh unregistered sleep advances
        // instantly instead of deadlocking on a leaked worker.
        clock.sleep(Duration::from_millis(3));
        assert!(clock.now() >= Duration::from_millis(3));
    }
}
