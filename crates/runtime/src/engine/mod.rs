//! The unified execution engine: one event-driven Seq/Par state machine
//! serving both first-success and quorum semantics, with per-request
//! budgets and O(frames) — not O(threads) — memory per request.
//!
//! Strategy walks no longer park one OS thread per running leg. Instead,
//! every started `Seq`/`Par` node is a small heap frame and every leaf
//! invocation is a completion event scheduled on the [`Clock`] (see
//! `engine/event.rs` for the core). One public entry point uses it:
//! [`execute_scoped`] borrows everything, the calling thread drives the
//! event loop, and the rare leaf that must really block (capacity limits,
//! foreign clocks, closure providers) runs on a scoped OS thread. With an
//! unlimited [`Budget`] its behaviour is bit-for-bit the pre-engine
//! executors' (`tests/engine_equivalence.rs` embeds them as oracles).
//!
//! The [`Gateway`](crate::Gateway) drives the same core with shared,
//! slot-owned inputs, and runs its blocking leaves on its own bounded,
//! reusable worker pool (a saturated pool spills to one-shot threads
//! rather than queueing legs behind their own parents, so capacity never
//! deadlocks an execution — see [`PoolStats`]).
//!
//! Both honour the paper's semantics: Assumption-2 cost accounting (every
//! started invocation is charged in full), global short-circuit, and
//! deterministic [`VirtualClock`](crate::VirtualClock) executions — the
//! event core processes completions in `(deadline, schedule-order)` order,
//! so a replay is bit-identical. Budgets add deadline/cancel pruning at
//! exactly the points the short-circuit is already checked, so a pruned
//! leg is always one that had not started.

mod budget;
pub(crate) mod event;
mod policy;
pub(crate) mod pool;

pub use budget::{Budget, PruneDetail};
pub use policy::Completion;
pub use pool::PoolStats;
pub use qce_strategy::{CompletionPolicy, PruneReason};

use std::borrow::Cow;
use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qce_strategy::Strategy;

use crate::clock::{Clock, Parker, WorkerGuard};
use crate::collector::Collector;
use crate::device::Provider;
use crate::message::{Invocation, InvocationOutcome, RuntimeError};
use crate::telemetry::Telemetry;

use event::{
    run_blocking, BlockingTask, BorrowedPlan, Done, EventCore, LegSink, RequestResult, RequestSpec,
    Shared,
};
pub(crate) use policy::PolicyState;
pub(crate) use pool::WorkerPool;

/// The result of one engine execution, common to both completion
/// policies.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// How the execution completed (first-success outcome or quorum
    /// votes).
    pub completion: Completion,
    /// Time from request start to the policy's decision instant (first
    /// success / quorum agreement), or to the completion of the last
    /// invocation when no decision was reached.
    pub latency: Duration,
    /// Total cost charged across all started invocations (Assumption 2).
    pub cost: f64,
    /// Every invocation that started, in completion order.
    pub invocations: Vec<InvocationOutcome>,
    /// Why the walk stopped early, when the request's [`Budget`] tripped
    /// (`None` for a walk the policy completed on its own).
    pub pruned: Option<PruneReason>,
    /// Full attribution of the first prune (reason, traffic class, and
    /// remaining deadline budget at the prune instant). Always present
    /// when [`EngineOutcome::pruned`] is.
    pub prune_detail: Option<PruneDetail>,
}

/// Point-in-time occupancy of the execution core: in-flight requests and
/// the continuation frames their walks are holding.
///
/// `#[non_exhaustive]`: a new gauge is not a breaking change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Requests currently in flight.
    pub in_flight: usize,
    /// Live `Seq`/`Par` continuation frames across all in-flight
    /// requests.
    pub frames_live: usize,
    /// High-water mark of `frames_live` since the core was created.
    pub frames_peak: usize,
    /// High-water mark of timers pending at once since the core was
    /// created: completions of timed legs and scheduled tasks.
    pub timers_peak: usize,
    /// High-water mark of distinct deadlines among the pending timers
    /// since the core was created. Timers that share a deadline share one
    /// run, so on a clock with whole-millisecond latencies this stays far
    /// below [`EngineStats::timers_peak`].
    pub timer_runs_peak: usize,
    /// Bytes of core-resident state per frame (for memory-per-request
    /// accounting: a request's walk costs `frames × frame_bytes` plus its
    /// bookkeeping, where the old model paid one OS thread stack per
    /// running leg).
    pub frame_bytes: usize,
    /// Wake-ups sent to the core's event loops since it was created: posts
    /// that found a loop parked, and virtual-time jumps that reached a
    /// parked loop's deadline. A post to a busy loop sends none.
    pub wakeups: u64,
    /// Wake-ups sent to [`RequestHandle`](crate::RequestHandle) waiters
    /// since the core was created: one per request that resolved while its
    /// submitter was parked in `wait`. A loop sends those of one clock
    /// instant together at its end, so one client waiting on a window of
    /// requests costs at most one per instant per loop; a handle collected
    /// after it resolved costs none.
    pub waiter_wakes: u64,
    /// Holds of the core's lock since it was created, this read's own
    /// included: one per submission, post and scheduled task, one per
    /// driver step (a step keeps its hold across the turns of an instant
    /// while nothing waits for the unlock), and one per read of these
    /// counters. The gauge of what a request pays in synchronization.
    pub lock_holds: u64,
    /// Event cores the gateway's blocking [`submit`](crate::Gateway::submit)s
    /// had to build. A client thread keeps its core idle between requests
    /// and reuses it, so this is one per client thread (and clock), plus
    /// one per request that sent a leg to the worker pool, was unwound by
    /// a panic, or was nested inside another request's provider on the
    /// same thread.
    pub blocking_cores_built: u64,
}

/// Rejects a quorum of zero, and strategies that reference an unresolved
/// provider index.
pub(crate) fn validate(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    policy: CompletionPolicy,
) -> Result<(), RuntimeError> {
    if matches!(policy, CompletionPolicy::Quorum { quorum: 0 }) {
        return Err(RuntimeError::InvalidScript {
            reason: "quorum must be at least 1".to_string(),
        });
    }
    for id in strategy.leaves() {
        if providers.get(id.index()).is_none() {
            return Err(RuntimeError::NoProvider {
                capability: format!("strategy operand {id}"),
            });
        }
    }
    Ok(())
}

/// Unwraps a resolved request's result, re-raising a provider panic on
/// the submitting thread.
fn settle(result: Option<RequestResult>) -> EngineOutcome {
    match result.expect("driving to resolution settles the request") {
        RequestResult::Finished(outcome) => outcome,
        RequestResult::Panicked(panic) => resume_unwind(panic),
        RequestResult::Shutdown => unreachable!("ephemeral cores are never shut down"),
    }
}

/// Executes `strategy` with borrowed inputs on the calling thread's event
/// loop; blocking leaves run on scoped OS threads. With
/// [`Budget::unlimited`] this is the historical behaviour of the
/// pre-engine executors, bit for bit: the paper's first-success semantics
/// (Section III.A) under [`CompletionPolicy::FirstSuccess`], its
/// "require `q` agreeing results" direction (Section VII) under
/// [`CompletionPolicy::Quorum`].
///
/// # Errors
///
/// Returns [`RuntimeError::NoProvider`] if the strategy references an
/// index with no resolved provider, and [`RuntimeError::InvalidScript`]
/// if `policy` is a quorum of zero; nothing is invoked, charged or
/// recorded before either.
///
/// # Panics
///
/// Panics if a provider panics (the leg's panic is propagated, with clock
/// worker accounting unwound).
#[allow(clippy::too_many_arguments)]
pub fn execute_scoped(
    strategy: &Strategy,
    providers: &[Arc<dyn Provider>],
    request: &Invocation,
    collector: Option<&Collector>,
    clock: &dyn Clock,
    telemetry: Option<&Telemetry>,
    budget: &Budget,
    policy: CompletionPolicy,
) -> Result<EngineOutcome, RuntimeError> {
    validate(strategy, providers, policy)?;
    let policy = PolicyState::new(policy);

    // A caller already registered as a worker of this clock (e.g. a load
    // generator driving many concurrent requests) keeps its own slot; the
    // event loop runs inline on its thread, so registering again would
    // double-count it and stall the virtual clock.
    let worker = (!clock.thread_is_worker()).then(|| WorkerGuard::enter(clock));
    let plan = BorrowedPlan {
        strategy,
        providers,
        sinks: LegSink::aligned(providers),
        collector,
        telemetry,
    };
    let core = EventCore::new(Shared::Borrowed(clock), Parker::of_this_thread(clock));
    let result = std::thread::scope(|scope| {
        let core = &core;
        let spawn = move |task: BlockingTask| {
            scope.spawn(move || run_blocking(core, task));
        };
        let req = core.submit(
            RequestSpec {
                plan: Shared::Borrowed(&plan),
                request: Cow::Borrowed(request),
                budget: budget.clone(),
                policy,
                record_invocations: true,
                done: Done::Park,
            },
            &spawn,
        );
        core.drive_request(req, &spawn).0
    });
    drop(core);
    drop(worker);
    Ok(settle(result))
}

/// The pooled blocking-leaf spawner: runs a leaf that must really block
/// on `pool`, reporting back into `core`. Holds the core weakly, so a
/// task that outlives it (shutdown or eviction race) frees the clock slot
/// reserved for its leg instead of panicking.
pub(crate) fn pooled_spawner(
    pool: &Arc<WorkerPool>,
    core: &Arc<EventCore<'static>>,
    clock: &Arc<dyn Clock>,
) -> impl Fn(BlockingTask) + Send + Sync + 'static {
    let core = Arc::downgrade(core);
    let clock = Arc::clone(clock);
    let pool = Arc::clone(pool);
    move |task: BlockingTask| {
        let core = core.clone();
        let clock = Arc::clone(&clock);
        pool.submit(Box::new(move || match core.upgrade() {
            Some(core) => run_blocking(&core, task),
            None => clock.release_worker(),
        }));
    }
}

/// Runs `request` — already [`validate`]d, resolving by [`Done::Park`] —
/// to its outcome, driven by the calling thread; blocking leaves run on
/// `pool`.
///
/// The core is the one this thread's last blocking drive on `clock` left
/// idle beside its parker ([`Parker::keep_idle_core`]), or a new one,
/// counted in `cores_built`. It goes back only when the request sent no
/// leaf to the pool and left the core quiescent
/// ([`EventCore::drive_request`] tells, and disarms the core, in the lock
/// hold that finds the request resolved).
/// A pool leg's post arms the signal in the same lock hold as its push,
/// so it cannot arm it after this driver consumed the leaf; but the pool
/// task holds the core (upgraded from its weak handle) until its notify
/// after the unlock returns, which can be after the request resolved, and
/// a kept core must be one no other thread holds. Such a core is dropped,
/// and `Drop` disarms it; so is one a provider's panic unwinds past (a
/// panic on a pool leg is caught there and re-raised here, after the pool
/// sent its core away). A nested drive (a provider on this thread
/// submitting again) finds no idle core while the outer one runs, so it
/// builds its own.
pub(crate) fn drive(
    pool: &Arc<WorkerPool>,
    clock: &Arc<dyn Clock>,
    request: RequestSpec<'static>,
    cores_built: &AtomicU64,
) -> EngineOutcome {
    // See `execute_scoped`: an already-registered caller keeps its slot.
    let worker = (!clock.thread_is_worker()).then(|| WorkerGuard::enter(&**clock));
    let core = Parker::take_idle_core(&**clock).unwrap_or_else(|| {
        cores_built.fetch_add(1, Ordering::Relaxed);
        let parker = Parker::of_this_thread(&**clock);
        Arc::new(EventCore::new(Shared::Owned(Arc::clone(clock)), parker))
    });
    // Most requests send no leaf to the pool: its spawner is built per task.
    let pooled = Cell::new(false);
    let spawn = |task: BlockingTask| {
        pooled.set(true);
        pooled_spawner(pool, &core, clock)(task);
    };
    let req = core.submit(request, &spawn);
    let (result, quiescent) = core.drive_request(req, &spawn);
    drop(worker);
    if !pooled.get() && quiescent {
        debug_assert_eq!(Arc::strong_count(&core) + Arc::weak_count(&core), 1);
        Parker::keep_idle_core(core);
    }
    settle(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::device::SimulatedProvider;
    use crate::engine::event::OwnedPlan;
    use crate::fault::{FaultPlan, FaultProfile, FaultyProvider};
    use crate::message::InvokeError;
    use qce_strategy::enumerate::StrategySampler;
    use qce_strategy::MsId;
    use rand::SeedableRng;

    /// The rig of `tests/engine_equivalence.rs`: a fresh clock plus `m`
    /// providers with distinct power-of-two latencies, reliability 0 or 1
    /// from `mask`, and a seeded fault plan where `fault_mask` says so.
    fn rig(
        m: usize,
        mask: u8,
        fault_mask: u8,
        seed: u64,
    ) -> (Arc<dyn Clock>, Vec<Arc<dyn Provider>>) {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let profile = FaultProfile {
            mean_time_between_faults: Duration::from_millis(20),
            mean_fault_duration: Duration::from_millis(10),
            latency_spike: Duration::from_millis(1024),
            byzantine_payload: vec![0xBB],
            ..FaultProfile::default()
        };
        let providers = (0..m)
            .map(|i| {
                let device = SimulatedProvider::builder(format!("p{i}"), format!("cap{i}"))
                    .latency(Duration::from_millis(1 << i))
                    .cost(5.0 * (i as f64 + 1.0))
                    .reliability(if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                    .response(vec![b'r', (i % 2) as u8])
                    .clock(Arc::clone(&clock))
                    .build();
                if fault_mask & (1 << i) == 0 {
                    return device as Arc<dyn Provider>;
                }
                let plan = FaultPlan::seeded(
                    seed.wrapping_add(i as u64),
                    Duration::from_secs(60),
                    &profile,
                );
                FaultyProvider::new(device, Arc::clone(&clock), plan) as Arc<dyn Provider>
            })
            .collect();
        (clock, providers)
    }

    /// The budgets a request can meet: none, a deadline that trips
    /// mid-walk, and one tripped before the first leaf starts.
    fn budgets() -> [Budget; 3] {
        let cancelled = Budget::unlimited();
        cancelled.cancel();
        [
            Budget::unlimited(),
            Budget::unlimited().with_deadline(Duration::from_millis(3)),
            cancelled,
        ]
    }

    /// The gateway's request form keeps no `InvocationOutcome`s and adds
    /// the cost up as legs complete; everything `drive` reports for it
    /// must be what `execute_scoped` reports for the same inputs, bit for
    /// bit — `-0.0` for a request that started nothing included.
    #[test]
    fn record_free_requests_agree_with_execute() {
        let pool = Arc::new(WorkerPool::new());
        let policies = [
            CompletionPolicy::FirstSuccess,
            CompletionPolicy::Quorum { quorum: 1 },
            CompletionPolicy::Quorum { quorum: 2 },
            CompletionPolicy::Quorum { quorum: 3 },
        ];
        for seed in 0..48u64 {
            let m = 1 + (seed % 5) as usize;
            let mixed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (mask, fault_mask) = ((mixed >> 8) as u8, (mixed >> 24) as u8);
            let ids: Vec<MsId> = (0..m).map(MsId).collect();
            let strategy = qce_strategy::IdSet::new(&ids)
                .and_then(StrategySampler::new)
                .unwrap()
                .sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed));
            for policy in policies {
                for (which, budget) in budgets().into_iter().enumerate() {
                    let ctx = format!("seed {seed} strategy {strategy} {policy:?} budget {which}");

                    let (clock, providers) = rig(m, mask, fault_mask, seed);
                    let recorded = execute_scoped(
                        &strategy,
                        &providers,
                        &Invocation::new(7, "", vec![]),
                        None,
                        &*clock,
                        None,
                        &budget,
                        policy,
                    )
                    .unwrap();
                    // What the running total replaced.
                    let summed: f64 = recorded.invocations.iter().map(|i| i.cost).sum();
                    assert_eq!(recorded.cost.to_bits(), summed.to_bits(), "{ctx}");

                    let (clock, providers) = rig(m, mask, fault_mask, seed);
                    let bare = drive(
                        &pool,
                        &clock,
                        RequestSpec {
                            plan: Shared::Owned(Arc::new(OwnedPlan::new(
                                strategy.clone(),
                                providers,
                            ))),
                            request: Cow::Owned(Invocation::new(7, "", vec![])),
                            budget,
                            policy: PolicyState::new(policy),
                            record_invocations: false,
                            done: Done::Park,
                        },
                        &AtomicU64::new(0),
                    );
                    assert!(bare.invocations.is_empty(), "{ctx}");
                    assert_eq!(bare.completion, recorded.completion, "{ctx}");
                    assert_eq!(bare.latency, recorded.latency, "{ctx}");
                    assert_eq!(bare.cost.to_bits(), recorded.cost.to_bits(), "{ctx}");
                    assert_eq!(bare.pruned, recorded.pruned, "{ctx}");
                    assert_eq!(bare.prune_detail, recorded.prune_detail, "{ctx}");
                    if which == 2 {
                        assert_eq!(bare.cost.to_bits(), (-0.0f64).to_bits(), "{ctx}");
                    }
                }
            }
        }
    }

    /// Logs the order its instances are started in, then fails after 1 ms
    /// so the walk goes on to every other leaf.
    #[derive(Debug)]
    struct Logged {
        id: &'static str,
        log: Arc<parking_lot::Mutex<Vec<&'static str>>>,
    }

    impl Provider for Logged {
        fn id(&self) -> &str {
            self.id
        }

        fn capability(&self) -> &str {
            self.id
        }

        fn cost(&self) -> f64 {
            1.0
        }

        fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
            unreachable!("always timed")
        }

        fn try_timed_invoke(
            &self,
            _request: &Invocation,
            _clock: &dyn Clock,
        ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
            self.log.lock().push(self.id);
            Some((
                Duration::from_millis(1),
                Err(InvokeError::DeviceUnavailable),
            ))
        }
    }

    /// A frame no longer carries its path: a child's node is found by
    /// climbing the `(frame, ordinal)` links. On a four-level tree the walk
    /// must start the leaves in the order, and allocate the frames, that
    /// the path-carrying walk did — the literals are what the parent
    /// commit produces for this test.
    #[test]
    fn nested_walk_follows_the_parent_chain() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let providers: Vec<Arc<dyn Provider>> = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|id| {
                let log = Arc::clone(&log);
                Arc::new(Logged { id, log }) as Arc<dyn Provider>
            })
            .collect();
        let clock = VirtualClock::new();
        let telemetry = Telemetry::new(Arc::new(VirtualClock::new()), 0);
        let strategy = Strategy::parse("a-(b*(c-d))*e").unwrap();
        let outcome = execute_scoped(
            &strategy,
            &providers,
            &Invocation::new(1, "", vec![]),
            None,
            &clock,
            Some(&telemetry),
            &Budget::unlimited(),
            CompletionPolicy::FirstSuccess,
        )
        .unwrap();
        assert!(!outcome.completion.is_success());
        assert_eq!(*log.lock(), ["a", "b", "e", "c", "d"]);
        assert_eq!(telemetry.snapshot().engine.frames_peak, 3);
        let completed: Vec<&str> = outcome
            .invocations
            .iter()
            .map(|i| i.provider_id.as_str())
            .collect();
        assert_eq!(completed, ["a", "b", "e", "c", "d"]);
        assert_eq!(outcome.latency, Duration::from_millis(3));
        assert_eq!(outcome.cost, 5.0);
    }

    /// When a blocking drive's core is kept idle on its thread and when it
    /// is not (see `drive`'s doc comment).
    mod idle_core {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, OnceLock, Weak};

        use qce_strategy::{Qos, Requirements};

        use super::*;
        use crate::{
            FnProvider, Gateway, GatewayConfig, InMemoryMarket, MsSpec, Request, ServiceScript,
        };

        const MS: Duration = Duration::from_millis(1);

        /// A gateway on `clock` serving one single-microservice script per
        /// provider, each named after its provider's capability.
        fn gateway(clock: &Arc<dyn Clock>, providers: Vec<Arc<dyn Provider>>) -> Arc<Gateway> {
            let market = InMemoryMarket::new();
            for provider in &providers {
                let spec = MsSpec {
                    name: provider.id().to_string(),
                    capability: provider.capability().to_string(),
                    prior: Qos::new(5.0, 1.0, 0.9).unwrap(),
                };
                let requirements = Requirements::new(1000.0, 1000.0, 0.5).unwrap();
                let mut script =
                    ServiceScript::new(provider.capability(), vec![spec], requirements);
                script.slot_size = u32::MAX;
                market.publish(script).unwrap();
            }
            let gateway = Gateway::with_clock(
                Box::new(market),
                GatewayConfig::default(),
                Arc::clone(clock),
            );
            for provider in providers {
                gateway.registry().register(provider);
            }
            Arc::new(gateway)
        }

        /// A timed provider of capability `capability`, 1 ms on `clock`.
        fn timed(clock: &Arc<dyn Clock>, capability: &str) -> Arc<dyn Provider> {
            SimulatedProvider::builder(format!("{capability}-0"), capability)
                .latency(MS)
                .clock(Arc::clone(clock))
                .build()
        }

        /// An opaque provider of capability `pool`: its legs run on the
        /// gateway's worker pool.
        fn opaque() -> Arc<dyn Provider> {
            FnProvider::new("pool-0", "pool", 1.0, |_| Ok(vec![1]))
        }

        fn submit(gateway: &Gateway, service: &str) {
            assert!(gateway.submit(Request::new(service)).unwrap().success);
        }

        fn built(gateway: &Gateway) -> u64 {
            gateway.engine_stats().blocking_cores_built
        }

        #[test]
        fn submits_on_one_thread_build_one_core() {
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let gateway = gateway(&clock, vec![timed(&clock, "timed")]);
            for _ in 0..50 {
                submit(&gateway, "timed");
            }
            assert_eq!(built(&gateway), 1);
            std::thread::scope(|scope| {
                scope.spawn(|| (0..50).for_each(|_| submit(&gateway, "timed")));
            });
            assert_eq!(built(&gateway), 2, "one per client thread");
        }

        /// A pool leg's request takes the idle core and does not put it
        /// back, so the next request builds a fresh one.
        #[test]
        fn a_request_with_a_pool_leg_keeps_no_core() {
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let gateway = gateway(&clock, vec![timed(&clock, "timed"), opaque()]);
            let mut counts = Vec::new();
            for service in ["timed", "pool", "timed", "pool", "pool", "timed", "timed"] {
                submit(&gateway, service);
                counts.push(built(&gateway));
            }
            assert_eq!(counts, [1, 1, 2, 2, 3, 4, 4]);
        }

        /// A pool task still holds its core while it notifies after its
        /// post, which can be after the request resolved. The slot an
        /// armed signal reserves must not outlive the request, or another
        /// user of the clock sleeps for ever: no pool leg's core is kept,
        /// and a registered sleeper on the clock always comes back. (The
        /// late notify itself needs the pool thread preempted between its
        /// post and its notify, so a run meets it rarely; the first check
        /// does not depend on it.)
        #[test]
        fn a_pool_legs_trailing_wake_does_not_pin_virtual_time() {
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let gateway = gateway(&clock, vec![timed(&clock, "timed"), opaque()]);
            let (go, went) = mpsc::channel::<()>();
            let (slept, done) = mpsc::channel();
            let sleeper = Arc::clone(&clock);
            std::thread::spawn(move || {
                for () in went {
                    let _worker = WorkerGuard::enter(&*sleeper);
                    sleeper.sleep(MS);
                    slept.send(()).unwrap();
                }
            });
            for round in 0..200 {
                if round % 4 == 0 {
                    submit(&gateway, "timed");
                } else {
                    submit(&gateway, "pool");
                    let kept = Parker::take_idle_core(&*clock);
                    assert!(kept.is_none(), "round {round}: a pool leg's core was kept");
                }
                go.send(()).unwrap();
                let woke = done.recv_timeout(Duration::from_secs(10));
                assert!(woke.is_ok(), "round {round}: virtual time is pinned");
            }
        }

        /// Submits `inner` through its gateway from inside its own timed
        /// leg, on the thread driving the outer request.
        #[derive(Debug)]
        struct Nesting {
            gateway: OnceLock<Weak<Gateway>>,
        }

        impl Provider for Nesting {
            fn id(&self) -> &str {
                "outer-0"
            }

            fn capability(&self) -> &str {
                "outer"
            }

            fn cost(&self) -> f64 {
                1.0
            }

            fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
                unreachable!("always timed")
            }

            fn try_timed_invoke(
                &self,
                _request: &Invocation,
                _clock: &dyn Clock,
            ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
                let gateway = self.gateway.get()?.upgrade()?;
                let inner = gateway.submit(Request::new("inner")).ok()?;
                Some((MS, inner.payload.ok_or(InvokeError::DeviceUnavailable)))
            }
        }

        /// The outer request holds the thread's idle core, so the nested one
        /// builds its own and leaves it idle; the outer core then finds the
        /// place taken and is dropped. One core per outer request after the
        /// first.
        #[test]
        fn a_nested_blocking_submit_builds_its_own_core() {
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let nesting = Arc::new(Nesting {
                gateway: OnceLock::new(),
            });
            let providers = vec![
                Arc::clone(&nesting) as Arc<dyn Provider>,
                timed(&clock, "inner"),
            ];
            let gateway = gateway(&clock, providers);
            nesting.gateway.set(Arc::downgrade(&gateway)).unwrap();
            for n in 1..=5 {
                submit(&gateway, "outer");
                assert_eq!(built(&gateway), n + 1);
            }
            assert_eq!(clock.now(), 5 * 2 * MS, "every leg took its 1 ms");
        }

        /// Panics in `cost` while `panics`.
        #[derive(Debug, Default)]
        struct Panicky {
            panics: AtomicBool,
        }

        impl Provider for Panicky {
            fn id(&self) -> &str {
                "panicky-0"
            }

            fn capability(&self) -> &str {
                "panicky"
            }

            fn cost(&self) -> f64 {
                assert!(!self.panics.load(Ordering::SeqCst), "provider panicked");
                1.0
            }

            fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
                unreachable!("always timed")
            }

            fn try_timed_invoke(
                &self,
                _request: &Invocation,
                _clock: &dyn Clock,
            ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
                Some((MS, Ok(vec![1])))
            }
        }

        /// The engine reads a leg's cost with the leg, inside the leg's
        /// `catch_unwind`, so a panic in `cost` is that leg's outcome, due
        /// at once: the drive ends normally and its core is kept, and
        /// `submit` hands the panic to its caller.
        #[test]
        fn a_provider_cost_panic_keeps_the_core() {
            let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
            let panicky = Arc::new(Panicky::default());
            let gateway = gateway(&clock, vec![Arc::clone(&panicky) as Arc<dyn Provider>]);
            submit(&gateway, "panicky");
            assert_eq!(built(&gateway), 1);
            panicky.panics.store(true, Ordering::SeqCst);
            let unwound =
                catch_unwind(AssertUnwindSafe(|| gateway.submit(Request::new("panicky"))));
            assert!(unwound.is_err());
            panicky.panics.store(false, Ordering::SeqCst);
            submit(&gateway, "panicky");
            submit(&gateway, "panicky");
            assert_eq!(built(&gateway), 1, "the core outlived the panic");
            assert_eq!(clock.now(), 3 * MS, "the panicked leg took no time");
        }
    }
}
