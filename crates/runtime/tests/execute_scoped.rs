//! `engine::execute_scoped`, the one way to execute a strategy outside a
//! gateway, under both completion policies: the paper's fail-over /
//! speculative-parallel semantics with global short-circuit and
//! Assumption-2 cost accounting (first success), and byte-equal agreement
//! among `q` equivalent microservices (quorum, Section VII).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy, EngineOutcome};
use qce_runtime::{
    Clock, Collector, FnProvider, Gateway, GatewayConfig, Invocation, InvokeError, Market, MsSpec,
    Parker, Provider, Request, RuntimeError, ServiceScript, SimulatedProvider, VirtualClock,
    WallClock,
};
use qce_strategy::{Qos, Requirements, Strategy};

fn req() -> Invocation {
    Invocation::new(1, "", vec![])
}

/// The door with its fixed arguments filled in: no telemetry, no budget.
fn run(
    strategy: &str,
    providers: &[Arc<dyn Provider>],
    collector: Option<&Collector>,
    clock: &dyn Clock,
    policy: CompletionPolicy,
) -> Result<EngineOutcome, RuntimeError> {
    execute_scoped(
        &Strategy::parse(strategy).unwrap(),
        providers,
        &req(),
        collector,
        clock,
        None,
        &Budget::unlimited(),
        policy,
    )
}

fn first_success(strategy: &str, providers: &[Arc<dyn Provider>]) -> EngineOutcome {
    run(
        strategy,
        providers,
        None,
        &WallClock::new(),
        CompletionPolicy::FirstSuccess,
    )
    .unwrap()
}

fn with_quorum(strategy: &str, providers: &[Arc<dyn Provider>], quorum: usize) -> EngineOutcome {
    run(
        strategy,
        providers,
        None,
        &WallClock::new(),
        CompletionPolicy::Quorum { quorum },
    )
    .unwrap()
}

/// `(votes, votes_cast)` of a quorum run.
fn votes(outcome: &EngineOutcome) -> (usize, usize) {
    match outcome.completion {
        Completion::Agreement {
            votes, votes_cast, ..
        } => (votes, votes_cast),
        Completion::First { .. } => panic!("quorum run returned first-success"),
    }
}

// ---------------------------------------------------------------------------
// First success.
// ---------------------------------------------------------------------------

fn provider(id: &str, latency_ms: u64, reliability: f64, cost: f64) -> Arc<dyn Provider> {
    SimulatedProvider::builder(id, id)
        .latency(Duration::from_millis(latency_ms))
        .reliability(reliability)
        .cost(cost)
        .seed(1)
        .build()
}

#[test]
fn single_provider_success() {
    let providers = vec![provider("a", 5, 1.0, 10.0)];
    let out = first_success("a", &providers);
    assert!(out.completion.is_success());
    assert_eq!(out.cost, 10.0);
    assert_eq!(out.invocations.len(), 1);
    assert!(out.latency >= Duration::from_millis(4));
}

#[test]
fn missing_provider_is_an_error() {
    let providers = vec![provider("a", 1, 1.0, 1.0)];
    assert!(matches!(
        run(
            "a*b",
            &providers,
            None,
            &WallClock::new(),
            CompletionPolicy::FirstSuccess
        ),
        Err(RuntimeError::NoProvider { .. })
    ));
}

#[test]
fn failover_skips_backup_on_success() {
    let providers = vec![provider("a", 2, 1.0, 10.0), provider("b", 2, 1.0, 99.0)];
    let out = first_success("a-b", &providers);
    assert!(out.completion.is_success());
    assert_eq!(out.cost, 10.0, "backup never invoked");
    assert_eq!(out.invocations.len(), 1);
}

#[test]
fn failover_uses_backup_on_failure() {
    let providers = vec![provider("a", 2, 0.0, 10.0), provider("b", 2, 1.0, 20.0)];
    let out = first_success("a-b", &providers);
    assert!(out.completion.is_success());
    assert_eq!(out.cost, 30.0);
    assert_eq!(out.invocations.len(), 2);
    assert!(!out.invocations[0].success);
    assert!(out.invocations[1].success);
}

#[test]
fn total_failure_reports_failure() {
    let providers = vec![provider("a", 1, 0.0, 10.0), provider("b", 1, 0.0, 20.0)];
    let out = first_success("a*b", &providers);
    assert!(!out.completion.is_success());
    assert!(out.completion.payload().is_none());
    assert_eq!(out.cost, 30.0);
}

#[test]
fn parallel_returns_fastest_success() {
    let providers = vec![
        provider("slow", 60, 1.0, 10.0),
        provider("fast", 2, 1.0, 20.0),
    ];
    let out = first_success("a*b", &providers);
    assert!(out.completion.is_success());
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
    let out = first_success("(a-b)*c", &providers);
    assert!(out.completion.is_success());
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
    let out = first_success("(a-b)*c", &providers);
    assert!(out.completion.is_success());
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
    let out = first_success("a*b", &providers);
    assert_eq!(out.completion.payload(), Some(&vec![1]));
}

#[test]
fn collector_records_every_completed_invocation() {
    let collector = Collector::new(100);
    let providers = vec![provider("a", 1, 0.0, 10.0), provider("b", 1, 1.0, 20.0)];
    let out = run(
        "a-b",
        &providers,
        Some(&collector),
        &WallClock::new(),
        CompletionPolicy::FirstSuccess,
    )
    .unwrap();
    assert!(out.completion.is_success());
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
    let out = first_success("a*b*c*d*e", &providers);
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
    let out = first_success("c*(a*b-d*e)", &providers);
    assert!(out.completion.is_success());
}

#[test]
fn outcome_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<EngineOutcome>();
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
        fn reserve_worker(&self) {
            self.reserves.fetch_add(1, Ordering::SeqCst);
            self.inner.reserve_worker();
        }
        fn adopt_worker(&self) {
            self.inner.adopt_worker();
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
        fn sleep_until_or(
            &self,
            parker: &Arc<Parker>,
            deadline: Option<Duration>,
            ready: &dyn Fn() -> bool,
        ) {
            self.inner.sleep_until_or(parker, deadline, ready);
        }
        fn notify_sleepers(&self, parker: &Parker) {
            self.inner.notify_sleepers(parker);
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
    let out = run(
        "(a-(b*c))*d",
        &providers,
        None,
        &spy,
        CompletionPolicy::FirstSuccess,
    )
    .unwrap();
    assert!(out.completion.is_success());
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
    // a = panics immediately, b = sleeps 10 ms of virtual time. The
    // panic must reach the caller (not be masked as a failed node) and
    // must release the worker slot, or the next sleeper on this clock
    // would hang forever.
    let clock = Arc::new(VirtualClock::new());
    let bomb: Arc<dyn Provider> =
        FnProvider::new("bomb", "cap", 1.0, |_| -> Result<Vec<u8>, InvokeError> {
            panic!("provider exploded")
        });
    let sleeper = SimulatedProvider::builder("sleeper", "cap")
        .latency(Duration::from_millis(10))
        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
        .build();
    let providers: Vec<Arc<dyn Provider>> = vec![bomb, sleeper];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(
            "a*b",
            &providers,
            None,
            &*clock,
            CompletionPolicy::FirstSuccess,
        )
    }));
    assert!(result.is_err(), "panic must propagate to the caller");
    // Worker accounting unwound: a fresh unregistered sleep advances
    // instantly instead of deadlocking on a leaked worker.
    clock.sleep(Duration::from_millis(3));
    assert!(clock.now() >= Duration::from_millis(3));
}

// ---------------------------------------------------------------------------
// Quorum.
// ---------------------------------------------------------------------------

fn honest(id: &str, answer: u8, cost: f64) -> Arc<dyn Provider> {
    FnProvider::new(id, "cap", cost, move |_| Ok(vec![answer]))
}

fn liar(id: &str, answer: u8) -> Arc<dyn Provider> {
    FnProvider::new(id, "cap", 10.0, move |_| Ok(vec![answer]))
}

fn failing(id: &str) -> Arc<dyn Provider> {
    FnProvider::new(id, "cap", 10.0, |_| {
        Err(InvokeError::ExecutionFailed {
            reason: "down".to_string(),
        })
    })
}

/// A market that hands out its one script as published, unvetted — the
/// way a script reaches a gateway from a market that does not validate.
struct Unvetted(ServiceScript);

impl Market for Unvetted {
    fn fetch(&self, _service_id: &str) -> Result<ServiceScript, RuntimeError> {
        Ok(self.0.clone())
    }

    fn service_ids(&self) -> Vec<String> {
        vec![self.0.service_id.clone()]
    }
}

/// A zero quorum is a typed error from both doors — `execute_scoped`'s
/// policy and a gateway script's `quorum` — before anything is invoked,
/// charged or recorded.
#[test]
fn zero_quorum_rejected() {
    let collector = Arc::new(Collector::new(10));
    let providers = vec![honest("a", 1, 1.0)];
    let policy = CompletionPolicy::Quorum { quorum: 0 };

    let scoped = run("a", &providers, Some(&collector), &WallClock::new(), policy);
    assert!(
        matches!(&scoped, Err(RuntimeError::InvalidScript { reason }) if reason.contains("quorum")),
        "{scoped:?}"
    );
    assert_eq!(collector.observation_count("a"), 0);

    let mut script = ServiceScript::new(
        "svc",
        vec![MsSpec {
            name: "a".into(),
            capability: "cap".into(),
            prior: Qos::new(1.0, 1.0, 0.9).unwrap(),
        }],
        Requirements::new(10.0, 10.0, 0.5).unwrap(),
    );
    script.quorum = Some(0);
    let gateway = Gateway::new(Box::new(Unvetted(script)), GatewayConfig::default());
    gateway.registry().register(honest("a", 1, 1.0));
    let served = gateway.submit(Request::new("svc"));
    assert!(
        matches!(&served, Err(RuntimeError::InvalidScript { reason }) if reason.contains("quorum")),
        "{served:?}"
    );
    assert_eq!(gateway.collector().observation_count("a"), 0);
    assert!(gateway.telemetry().snapshot().providers.is_empty());
    assert_eq!(gateway.pool_stats().submitted, 0, "nothing was invoked");
}

#[test]
fn quorum_one_matches_first_success_semantics() {
    let providers = vec![honest("a", 7, 10.0), honest("b", 7, 20.0)];
    let out = with_quorum("a-b", &providers, 1);
    assert!(out.completion.is_success());
    assert_eq!(out.completion.payload(), Some(&vec![7]));
    assert_eq!(out.cost, 10.0, "b never runs at quorum 1");

    let first = first_success("a-b", &providers);
    assert_eq!(out.completion.is_success(), first.completion.is_success());
    assert_eq!(out.completion.payload(), first.completion.payload());
    assert_eq!(out.cost, first.cost);
    assert_eq!(out.invocations.len(), first.invocations.len());
}

#[test]
fn quorum_two_runs_the_backup_too() {
    let providers = vec![honest("a", 7, 10.0), honest("b", 7, 20.0)];
    let out = with_quorum("a-b", &providers, 2);
    assert!(out.completion.is_success());
    assert_eq!(votes(&out).0, 2);
    assert_eq!(out.cost, 30.0, "redundancy costs double");
}

#[test]
fn byzantine_device_is_outvoted() {
    let providers = vec![honest("a", 21, 10.0), liar("b", 99), honest("c", 21, 10.0)];
    let out = with_quorum("a-b-c", &providers, 2);
    assert!(out.completion.is_success());
    assert_eq!(out.completion.payload(), Some(&vec![21]));
    assert_eq!(votes(&out), (2, 3));
}

#[test]
fn no_quorum_returns_plurality_unagreed() {
    let providers = vec![honest("a", 1, 10.0), liar("b", 2), failing("c")];
    let out = with_quorum("a-b-c", &providers, 2);
    assert!(!out.completion.is_success());
    assert_eq!(votes(&out), (1, 2));
    // Plurality tie broken by first-seen payload.
    assert_eq!(out.completion.payload(), Some(&vec![1]));
}

#[test]
fn failures_still_gate_nothing_under_quorum_seq() {
    // All fail: no votes, not agreed, everything charged.
    let providers = vec![failing("a"), failing("b")];
    let out = with_quorum("a-b", &providers, 1);
    assert!(!out.completion.is_success());
    assert_eq!(votes(&out).1, 0);
    assert!(out.completion.payload().is_none());
    assert_eq!(out.cost, 20.0);
}

#[test]
fn parallel_strategy_reaches_quorum_concurrently() {
    let providers: Vec<Arc<dyn Provider>> = (0..3)
        .map(|i| {
            SimulatedProvider::builder(format!("p{i}"), "cap")
                .latency(Duration::from_millis(2 + i))
                .reliability(1.0)
                .cost(10.0)
                .response(vec![42])
                .build() as Arc<dyn Provider>
        })
        .collect();
    let out = with_quorum("a*b*c", &providers, 2);
    assert!(out.completion.is_success());
    assert_eq!(out.completion.payload(), Some(&vec![42]));
    assert!(votes(&out).0 >= 2);
    assert_eq!(out.cost, 30.0, "all three start in parallel");
}

#[test]
fn quorum_stops_sequential_tail_once_reached() {
    let providers = vec![
        honest("a", 5, 10.0),
        honest("b", 5, 10.0),
        honest("c", 5, 999.0),
    ];
    let out = with_quorum("a-b-c", &providers, 2);
    assert!(out.completion.is_success());
    assert_eq!(out.cost, 20.0, "c never starts once a and b agree");
}

#[test]
fn collector_records_quorum_invocations() {
    let collector = Collector::new(10);
    let providers = vec![honest("a", 5, 10.0), honest("b", 5, 10.0)];
    let _ = run(
        "a-b",
        &providers,
        Some(&collector),
        &WallClock::new(),
        CompletionPolicy::Quorum { quorum: 2 },
    )
    .unwrap();
    assert_eq!(collector.observation_count("a"), 1);
    assert_eq!(collector.observation_count("b"), 1);
}
