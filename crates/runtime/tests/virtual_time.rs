//! Deterministic virtual-time integration tests: the whole runtime —
//! executor, quorum voting, gateway feedback loop, fault injection — runs
//! on a shared [`VirtualClock`], so latency assertions are exact equalities
//! and simulated seconds cost real microseconds.

use std::sync::Arc;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy, EngineOutcome};
use qce_runtime::{
    Clock, FaultEvent, FaultKind, FaultPlan, FaultyProvider, GatewayConfig, Harness, Invocation,
    MsSpec, Provider, ServiceScript, SimulatedProvider, VirtualClock,
};
use qce_strategy::{Qos, Requirements, Strategy};

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Executes `strategy` through the scoped door on `clock`, no budget.
fn run(
    strategy: &str,
    providers: &[Arc<dyn Provider>],
    clock: &VirtualClock,
    policy: CompletionPolicy,
) -> EngineOutcome {
    execute_scoped(
        &Strategy::parse(strategy).unwrap(),
        providers,
        &Invocation::new(1, "svc", vec![]),
        None,
        clock,
        None,
        &Budget::unlimited(),
        policy,
    )
    .unwrap()
}

/// A provider on `clock` with fixed latency/reliability/cost.
fn provider(
    clock: &Arc<VirtualClock>,
    id: &str,
    latency: Duration,
    reliability: f64,
    cost: f64,
) -> Arc<SimulatedProvider> {
    SimulatedProvider::builder(id, id)
        .latency(latency)
        .reliability(reliability)
        .cost(cost)
        .clock(Arc::clone(clock) as Arc<dyn Clock>)
        .build()
}

/// A single-microservice script with lenient requirements.
fn one_ms_script(service_id: &str, slot_size: u32) -> ServiceScript {
    let mut script = ServiceScript::new(
        service_id,
        vec![MsSpec {
            name: "m".into(),
            capability: "cap".into(),
            prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
        }],
        Requirements::new(500.0, 500.0, 0.5).unwrap(),
    );
    script.slot_size = slot_size;
    script
}

#[test]
fn failover_latency_is_exact() {
    // a (10 ms) always fails, b (5 ms) succeeds: the fail-over chain pays
    // both latencies back to back and both costs.
    let clock = Arc::new(VirtualClock::new());
    let providers: Vec<Arc<dyn Provider>> = vec![
        provider(&clock, "a", ms(10), 0.0, 10.0),
        provider(&clock, "b", ms(5), 1.0, 20.0),
    ];
    let out = run("a-b", &providers, &clock, CompletionPolicy::FirstSuccess);
    assert!(out.completion.is_success());
    assert_eq!(out.latency, ms(15), "10 ms failure + 5 ms backup");
    assert_eq!(out.cost, 30.0);
    assert_eq!(clock.now(), ms(15));
}

#[test]
fn speculative_winner_defines_latency() {
    // a*b races a 500 ms loser against a 2 ms winner: the response latency
    // is the winner's, even though the executor joins the loser (which
    // completes at 500 ms virtual) before returning.
    let clock = Arc::new(VirtualClock::new());
    let providers: Vec<Arc<dyn Provider>> = vec![
        provider(&clock, "a", ms(500), 1.0, 10.0),
        provider(&clock, "b", ms(2), 1.0, 20.0),
    ];
    let out = run("a*b", &providers, &clock, CompletionPolicy::FirstSuccess);
    assert!(out.completion.is_success());
    assert_eq!(out.latency, ms(2), "first success wins");
    assert_eq!(out.cost, 30.0, "both started — both charged");
    assert_eq!(out.invocations.len(), 2, "the loser still completes");
    assert_eq!(clock.now(), ms(500), "the join waited for the loser");
}

#[test]
fn short_circuit_cancels_unstarted_backup() {
    // (a-b)*c: by the time a's slow failure (30 ms) would fall through to
    // b, c has already won (2 ms) — b must never start or be charged.
    let clock = Arc::new(VirtualClock::new());
    let providers: Vec<Arc<dyn Provider>> = vec![
        provider(&clock, "a", ms(30), 0.0, 10.0),
        provider(&clock, "b", ms(1), 1.0, 99.0),
        provider(&clock, "c", ms(2), 1.0, 20.0),
    ];
    let out = run(
        "(a-b)*c",
        &providers,
        &clock,
        CompletionPolicy::FirstSuccess,
    );
    assert!(out.completion.is_success());
    assert_eq!(out.latency, ms(2));
    assert_eq!(out.cost, 30.0, "b was cancelled before starting");
    assert!(out.invocations.iter().all(|i| i.provider_id != "b"));
    assert_eq!(clock.now(), ms(30), "a's failure still ran to completion");
}

#[test]
fn total_failure_latency_spans_the_chain() {
    let clock = Arc::new(VirtualClock::new());
    let providers: Vec<Arc<dyn Provider>> = vec![
        provider(&clock, "a", ms(10), 0.0, 10.0),
        provider(&clock, "b", ms(5), 0.0, 20.0),
    ];
    let out = run("a-b", &providers, &clock, CompletionPolicy::FirstSuccess);
    assert!(!out.completion.is_success());
    assert!(out.completion.payload().is_none());
    assert_eq!(out.latency, ms(15), "failure latency covers every attempt");
    assert_eq!(out.cost, 30.0);
}

#[test]
fn quorum_outvotes_a_byzantine_provider() {
    // Two honest sensors and one compromised device racing in parallel:
    // with q = 2 the honest answer reaches quorum when the second honest
    // device completes at 3 ms.
    let clock = Arc::new(VirtualClock::new());
    let honest = |id: &str, latency| {
        SimulatedProvider::builder(id, "temp")
            .latency(latency)
            .response(vec![21])
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build()
    };
    let liar = FaultyProvider::new(
        honest("b", ms(2)),
        Arc::clone(&clock) as Arc<dyn Clock>,
        FaultPlan::new(vec![FaultEvent {
            at: Duration::ZERO,
            kind: FaultKind::Byzantine(vec![99]),
        }]),
    );
    let providers: Vec<Arc<dyn Provider>> = vec![honest("a", ms(1)), liar, honest("c", ms(3))];
    let out = run(
        "a*b*c",
        &providers,
        &clock,
        CompletionPolicy::Quorum { quorum: 2 },
    );
    assert_eq!(
        out.completion,
        Completion::Agreement {
            payload: Some(vec![21]), // the liar is outvoted
            votes: 2,
            votes_cast: 3, // the byzantine result still voted
            agreed: true,
        }
    );
    assert_eq!(out.latency, ms(3), "quorum reached at the second honest");
}

#[test]
fn gateway_replans_around_a_crashed_provider() {
    // The cheap provider is crashed from the start; slot 0 keeps failing
    // on it, and the slot-1 re-plan routes the capability to the healthy
    // backup (Assumption 1 on collector data).
    let h = Harness::builder()
        .script(one_ms_script("svc", 3))
        .faulty(
            SimulatedProvider::builder("a/cap", "cap")
                .latency(ms(1))
                .cost(10.0),
            FaultPlan::new(vec![FaultEvent {
                at: Duration::ZERO,
                kind: FaultKind::Crash,
            }]),
        )
        .provider(
            SimulatedProvider::builder("b/cap", "cap")
                .latency(ms(5))
                .cost(50.0),
        )
        .build();

    for _ in 0..3 {
        let response = h.invoke("svc").unwrap();
        assert!(!response.success, "slot 0 rides the crashed provider");
        assert_eq!(response.slot, 0);
    }
    let response = h.invoke("svc").unwrap();
    assert_eq!(response.slot, 1);
    assert!(response.success, "slot 1 re-planned onto the backup");
    assert_eq!(response.latency, ms(5), "served by the 5 ms backup");
    assert_eq!(h.provider("b/cap").invocations(), 1);
    assert_eq!(
        h.provider("a/cap").invocations(),
        0,
        "crashes fail before reaching the device"
    );
}

#[test]
fn collector_window_evicts_stale_observations() {
    // Five failures fill the window; five later successes push them out, so
    // the windowed success rate recovers to 1.0 (not 0.5).
    let h = Harness::builder()
        .script(one_ms_script("svc", 1000))
        .config(GatewayConfig::builder().collector_window(5).build())
        .provider(
            SimulatedProvider::builder("d/cap", "cap")
                .latency(Duration::ZERO)
                .reliability(0.0),
        )
        .build();

    for _ in 0..5 {
        assert!(!h.invoke("svc").unwrap().success);
    }
    h.provider("d/cap").set_reliability(1.0);
    for _ in 0..5 {
        assert!(h.invoke("svc").unwrap().success);
    }
    let collector = h.gateway().collector();
    assert_eq!(collector.observation_count("d/cap"), 5, "window is capped");
    let stats = collector.stats("d/cap").unwrap();
    assert_eq!(stats.success_rate, 1.0, "old failures were evicted");
}

#[test]
fn crash_flap_follows_the_fault_plan() {
    // crash @5, recover @10, crash @15, recover @20: stepping the clock
    // through the windows flips availability exactly on schedule.
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: ms(5),
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: ms(10),
            kind: FaultKind::Recover,
        },
        FaultEvent {
            at: ms(15),
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: ms(20),
            kind: FaultKind::Recover,
        },
    ]);
    let h = Harness::builder()
        .script(one_ms_script("svc", 1000))
        .faulty(
            SimulatedProvider::builder("d/cap", "cap").latency(Duration::ZERO),
            plan,
        )
        .build();

    let mut successes = Vec::new();
    for _ in 0..5 {
        successes.push(h.invoke("svc").unwrap().success);
        h.clock().advance(ms(5)); // 0 → 5 → 10 → 15 → 20
    }
    assert_eq!(
        successes,
        vec![true, false, true, false, true],
        "availability flips at each scheduled window edge"
    );
}

#[test]
fn latency_fault_delays_the_response_exactly() {
    let h = Harness::builder()
        .script(one_ms_script("svc", 1000))
        .faulty(
            SimulatedProvider::builder("d/cap", "cap").latency(ms(2)),
            FaultPlan::new(vec![FaultEvent {
                at: Duration::ZERO,
                kind: FaultKind::AddLatency(ms(30)),
            }]),
        )
        .build();
    let response = h.invoke("svc").unwrap();
    assert!(response.success);
    assert_eq!(response.latency, ms(32), "30 ms spike + 2 ms service time");
    assert_eq!(h.clock().now(), ms(32));
}

#[test]
fn harness_serves_the_temperature_service() {
    // The paper's two-capability temperature service, wired in one
    // expression: the slot-0 default strategy races both microservices and
    // the faster one defines the latency.
    let script = ServiceScript::new(
        "detect-temperature",
        vec![
            MsSpec {
                name: "readTempSensor".into(),
                capability: "read-temp".into(),
                prior: Qos::new(50.0, 5.0, 0.7).unwrap(),
            },
            MsSpec {
                name: "estTemp".into(),
                capability: "est-temp".into(),
                prior: Qos::new(50.0, 8.0, 0.7).unwrap(),
            },
        ],
        Requirements::new(150.0, 100.0, 0.9).unwrap(),
    );
    let h = Harness::builder()
        .script(script)
        .provider(
            SimulatedProvider::builder("pi/read-temp", "read-temp")
                .latency(ms(2))
                .cost(50.0),
        )
        .provider(
            SimulatedProvider::builder("m92p/est-temp", "est-temp")
                .latency(ms(15))
                .cost(50.0),
        )
        .build();
    let response = h.invoke("detect-temperature").unwrap();
    assert!(response.success);
    assert_eq!(response.strategy_text, "readTempSensor*estTemp");
    assert_eq!(response.latency, ms(2), "the sensor wins the race");
    assert_eq!(response.cost, 100.0, "both speculative branches charged");
    assert_eq!(h.clock().now(), ms(15), "the loser finished at 15 ms");
}

#[test]
fn virtual_sleep_costs_no_real_time() {
    // Five virtual seconds of loser latency must not cost five real
    // seconds. (Test-side wall timing only; the runtime itself never reads
    // Instant::now outside WallClock.)
    let wall_start = std::time::Instant::now();
    let clock = Arc::new(VirtualClock::new());
    let providers: Vec<Arc<dyn Provider>> = vec![
        provider(&clock, "a", Duration::from_secs(5), 1.0, 10.0),
        provider(&clock, "b", ms(1), 1.0, 20.0),
    ];
    let out = run("a*b", &providers, &clock, CompletionPolicy::FirstSuccess);
    assert!(out.completion.is_success());
    assert_eq!(clock.now(), Duration::from_secs(5));
    assert!(
        wall_start.elapsed() < Duration::from_secs(2),
        "virtual seconds must not sleep for real"
    );
}

#[test]
fn twin_rigs_with_the_same_seed_agree() {
    // Two independently built harnesses under the same seeded fault plan
    // observe the exact same success sequence: a failing run names its
    // misfortune reproducibly.
    let run = || {
        let plan = FaultPlan::seeded(42, Duration::from_secs(1), &Default::default());
        let h = Harness::builder()
            .script(one_ms_script("svc", 1000))
            .faulty(
                SimulatedProvider::builder("d/cap", "cap").latency(Duration::ZERO),
                plan,
            )
            .build();
        (0..100)
            .map(|_| {
                let success = h.invoke("svc").unwrap().success;
                h.clock().advance(ms(10));
                success
            })
            .collect::<Vec<bool>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert!(
        first.iter().any(|&s| !s) && first.iter().any(|&s| s),
        "the default profile produces both fault windows and healthy gaps"
    );
}
