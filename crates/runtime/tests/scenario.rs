//! Adversarial-scenario integration tests:
//!
//! 1. **Storm equivalence** (property): merging a correlated-crash storm
//!    into per-leaf fault plans via the scenario compiler's
//!    [`merge_crash_windows`] yields bit-identical engine outcomes to an
//!    *independent* per-leaf construction of the same group-coupled crash
//!    windows (a state-machine walk written from scratch below), across
//!    seeds and both [`CompletionPolicy`] variants. Determinism argument
//!    as in `engine_equivalence.rs`: reliabilities 0/1, distinct
//!    power-of-two latencies (distinct subset-sums), 1024 ms spikes, and
//!    traces compared as sorted multisets.
//! 2. **Churn regression**: evicting a provider mid-slot with a request in
//!    flight, then re-adding it, must not panic the gateway, leak
//!    worker-pool slots, or double-count churn/final-stats telemetry.
//! 3. **DSL round-trip** (property): parse → serialize → parse is the
//!    identity for valid scenarios, and malformed scenario JSON is
//!    rejected with typed [`ScenarioError`]s, never a panic.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use qce_runtime::engine::{execute_scoped, Budget, Completion, CompletionPolicy};
use qce_runtime::scenario::{
    merge_crash_windows, BackgroundFaults, Churn, LoadPhase, MsDef, Require, Scenario,
    ScenarioError, ServiceDef, Storm,
};
use qce_runtime::telemetry::EventKind;
use qce_runtime::{
    Clock, FaultEvent, FaultKind, FaultPlan, FaultProfile, FaultyProvider, Harness, Invocation,
    InvocationOutcome, MsSpec, Provider, RuntimeError, ServiceScript, SimulatedProvider,
    VirtualClock, WorkerGuard,
};
use qce_strategy::enumerate::StrategySampler;
use qce_strategy::{IdSet, MsId, Qos, Requirements, Strategy};

// ---------------------------------------------------------------------------
// Satellite 1: storm ≡ group-coupled per-leaf crash windows.
// ---------------------------------------------------------------------------

/// Distinct power-of-two latencies: every success instant is a distinct
/// subset-sum, so no virtual-time tie can make the winner race-dependent.
const LATENCIES_MS: [u64; 5] = [1, 2, 4, 8, 16];

const HORIZON: Duration = Duration::from_secs(60);

/// Background fault profile whose latency spike (1024 ms) sits far above
/// any subset-sum of the base latencies, preserving the no-ties argument.
fn profile() -> FaultProfile {
    FaultProfile {
        mean_time_between_faults: Duration::from_millis(20),
        mean_fault_duration: Duration::from_millis(10),
        crash_weight: 2,
        latency_weight: 1,
        byzantine_weight: 1,
        latency_spike: Duration::from_millis(1024),
        byzantine_payload: vec![0xBB],
    }
}

/// Independent oracle for the compiler's plan merging: walk the background
/// plan and the storm window as a two-input state machine over event
/// instants, emitting `Crash` exactly when the provider goes down
/// (background crash OR storm) and `Recover` exactly when both clear.
/// Non-crash events pass through.
fn oracle_merge(
    base: &FaultPlan,
    storm: Option<(Duration, Duration)>,
    horizon: Duration,
) -> FaultPlan {
    let mut instants: Vec<Duration> = base.events().iter().map(|e| e.at).collect();
    if let Some((from, to)) = storm {
        instants.push(from);
        instants.push(to);
    }
    instants.sort_unstable();
    instants.dedup();

    let mut events: Vec<FaultEvent> = base
        .events()
        .iter()
        .filter(|e| !matches!(e.kind, FaultKind::Crash | FaultKind::Recover))
        .cloned()
        .collect();

    let background_down_at = |at: Duration| -> bool {
        let mut down = false;
        for event in base.events() {
            if event.at > at {
                break;
            }
            match event.kind {
                FaultKind::Crash => down = true,
                FaultKind::Recover => down = false,
                _ => {}
            }
        }
        down
    };
    let storm_down_at =
        |at: Duration| -> bool { storm.is_some_and(|(from, to)| from <= at && at < to) };

    let mut down = false;
    for at in instants {
        if at >= horizon {
            break;
        }
        let now_down = background_down_at(at) || storm_down_at(at);
        if now_down != down {
            events.push(FaultEvent {
                at,
                kind: if now_down {
                    FaultKind::Crash
                } else {
                    FaultKind::Recover
                },
            });
            down = now_down;
        }
    }
    if down {
        events.push(FaultEvent {
            at: horizon,
            kind: FaultKind::Recover,
        });
    }
    FaultPlan::new(events)
}

/// Per-provider background plan for bit `i` of `fault_mask` (empty plan
/// when the bit is clear).
fn background_plan(i: usize, fault_mask: u8, seed: u64) -> FaultPlan {
    if fault_mask & (1 << i) != 0 {
        FaultPlan::seeded(seed.wrapping_add(i as u64), HORIZON, &profile())
    } else {
        FaultPlan::none()
    }
}

/// A fresh clock plus M providers wrapped with the given per-leaf plans.
fn rig_with_plans(
    m: usize,
    mask: u8,
    plans: &[FaultPlan],
) -> (Arc<VirtualClock>, Vec<Arc<dyn Provider>>) {
    let clock = Arc::new(VirtualClock::new());
    let providers = (0..m)
        .map(|i| {
            let device = SimulatedProvider::builder(format!("p{i}"), format!("cap{i}"))
                .latency(Duration::from_millis(LATENCIES_MS[i]))
                .cost(5.0 * (i as f64 + 1.0))
                .reliability(if mask & (1 << i) != 0 { 1.0 } else { 0.0 })
                .response(vec![b'r', (i % 2) as u8])
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build();
            FaultyProvider::new(
                device,
                Arc::clone(&clock) as Arc<dyn Clock>,
                plans[i].clone(),
            ) as Arc<dyn Provider>
        })
        .collect();
    (clock, providers)
}

fn sampled_strategy(m: usize, seed: u64) -> Strategy {
    use rand::SeedableRng;
    let ids: Vec<MsId> = (0..m).map(MsId).collect();
    IdSet::new(&ids)
        .and_then(StrategySampler::new)
        .unwrap()
        .sample(&mut rand_chacha::ChaCha8Rng::seed_from_u64(seed))
}

type TraceKey = (String, String, Duration, bool, Option<Vec<u8>>, u64);

fn trace_key(outcome: &InvocationOutcome) -> TraceKey {
    (
        outcome.provider_id.clone(),
        outcome.capability.clone(),
        outcome.latency,
        outcome.success,
        outcome.payload.clone(),
        outcome.cost.to_bits(),
    )
}

fn sorted_trace(invocations: &[InvocationOutcome]) -> Vec<TraceKey> {
    let mut keys: Vec<_> = invocations.iter().map(trace_key).collect();
    keys.sort();
    keys
}

fn run_engine(
    strategy: &Strategy,
    m: usize,
    mask: u8,
    plans: &[FaultPlan],
    policy: CompletionPolicy,
) -> qce_runtime::EngineOutcome {
    let (clock, providers) = rig_with_plans(m, mask, plans);
    execute_scoped(
        strategy,
        &providers,
        &Invocation::new(7, "", vec![]),
        None,
        &*clock,
        None,
        &Budget::unlimited(),
        policy,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A correlated-crash storm compiled via `merge_crash_windows` is
    /// observationally identical to independently-constructed per-leaf
    /// plans with the same group-coupled crash windows, under both
    /// completion policies.
    #[test]
    fn storm_equals_group_coupled_per_leaf_plans(
        m in 1usize..6,
        seed in any::<u64>(),
        mask in any::<u8>(),
        fault_mask in any::<u8>(),
        group_mask in any::<u8>(),
        storm_from_ms in 0u64..40,
        storm_len_ms in 1u64..40,
        quorum in 1usize..4,
    ) {
        let strategy = sampled_strategy(m, seed);
        let storm = (
            Duration::from_millis(storm_from_ms),
            Duration::from_millis(storm_from_ms + storm_len_ms),
        );

        let mut compiled_plans = Vec::with_capacity(m);
        let mut oracle_plans = Vec::with_capacity(m);
        for i in 0..m {
            let base = background_plan(i, fault_mask, seed);
            let member = group_mask & (1 << i) != 0;
            let windows: &[(Duration, Duration)] = if member { &[storm] } else { &[] };
            compiled_plans.push(merge_crash_windows(&base, windows, HORIZON));
            oracle_plans.push(oracle_merge(&base, member.then_some(storm), HORIZON));
        }

        for policy in [CompletionPolicy::FirstSuccess, CompletionPolicy::Quorum { quorum }] {
            let compiled = run_engine(&strategy, m, mask, &compiled_plans, policy);
            let oracle = run_engine(&strategy, m, mask, &oracle_plans, policy);
            let ctx = format!("strategy {strategy} policy {policy:?}");
            match (&compiled.completion, &oracle.completion) {
                (
                    Completion::First { success: a, payload: pa },
                    Completion::First { success: b, payload: pb },
                ) => {
                    prop_assert_eq!(a, b, "{}", ctx);
                    prop_assert_eq!(pa, pb, "{}", ctx);
                }
                (
                    Completion::Agreement { payload: pa, votes: va, votes_cast: ca, agreed: ga },
                    Completion::Agreement { payload: pb, votes: vb, votes_cast: cb, agreed: gb },
                ) => {
                    prop_assert_eq!(pa, pb, "{}", ctx);
                    prop_assert_eq!(va, vb, "{}", ctx);
                    prop_assert_eq!(ca, cb, "{}", ctx);
                    prop_assert_eq!(ga, gb, "{}", ctx);
                }
                _ => prop_assert!(false, "mismatched completion kinds: {}", ctx),
            }
            prop_assert_eq!(compiled.latency, oracle.latency, "{}", ctx);
            prop_assert_eq!(compiled.cost.to_bits(), oracle.cost.to_bits(), "{}", ctx);
            prop_assert_eq!(
                sorted_trace(&compiled.invocations),
                sorted_trace(&oracle.invocations),
                "{}",
                ctx
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 2: churn mid-slot with a request in flight.
// ---------------------------------------------------------------------------

fn churn_script() -> ServiceScript {
    ServiceScript::new(
        "svc",
        vec![
            MsSpec {
                name: "slow".into(),
                capability: "cap-slow".into(),
                prior: Qos::new(1.0, 20.0, 1.0).unwrap(),
            },
            MsSpec {
                name: "fast".into(),
                capability: "cap-fast".into(),
                prior: Qos::new(50.0, 1.0, 1.0).unwrap(),
            },
        ],
        Requirements::new(100.0, 100.0, 0.9).unwrap(),
    )
}

#[test]
fn evicting_provider_mid_flight_then_rejoining_is_clean() {
    let harness = Harness::builder()
        .script(churn_script())
        .provider(
            SimulatedProvider::builder("dev/slow", "cap-slow")
                .cost(1.0)
                .latency(Duration::from_millis(20))
                .reliability(1.0),
        )
        .provider(
            SimulatedProvider::builder("dev/fast", "cap-fast")
                .cost(50.0)
                .latency(Duration::from_millis(1))
                .reliability(1.0),
        )
        .build();
    let gateway = harness.gateway();

    // Slot 0 (parallel default) observes both providers; slot 1 plans the
    // cheap slow one alone (it satisfies every requirement at 1/50th of
    // the cost).
    assert!(harness.invoke("svc").unwrap().success);
    gateway.end_slot("svc");

    let t0 = harness.clock().now();
    let result = std::thread::scope(|scope| {
        let h = &harness;
        let client = scope.spawn(move || {
            let _worker = WorkerGuard::enter(h.clock().as_ref());
            h.invoke("svc")
        });
        // Virtual time only advances once the client is asleep inside the
        // provider — i.e. the request is genuinely in flight.
        while h.clock().now() == t0 {
            std::thread::yield_now();
        }
        // The device leaves mid-flight; a second departure is a no-op.
        assert!(gateway.provider_left("dev/slow"));
        assert!(!gateway.provider_left("dev/slow"));
        client.join().expect("in-flight request must not panic")
    });
    // The in-flight request kept its provider Arc and ran to completion.
    let response = result.expect("in-flight request completes");
    assert!(response.success);

    // No worker-pool slots leaked by the departure.
    let stats = gateway.pool_stats();
    assert_eq!(stats.running, 0, "no stuck jobs: {stats:?}");

    // The next slot re-plans over the surviving provider.
    gateway.end_slot("svc");
    let response = harness.invoke("svc").unwrap();
    assert!(response.success);
    assert!(
        !response.strategy_text.contains("slow"),
        "departed provider must not be planned: {}",
        response.strategy_text
    );

    // The device re-joins next slot and serves again.
    let rejoined: Arc<dyn Provider> = Arc::clone(harness.provider("dev/slow")) as _;
    gateway.provider_joined(rejoined);
    gateway.end_slot("svc");
    assert!(harness.invoke("svc").unwrap().success);

    // Telemetry counted exactly one departure and one rejoin, despite the
    // duplicate `provider_left` call.
    let snapshot = harness.telemetry().snapshot();
    let provider = snapshot.provider("dev/slow").unwrap();
    assert_eq!(provider.departures, 1);
    assert_eq!(provider.rejoins, 1);
    let left_events = gateway
        .telemetry()
        .events()
        .iter()
        .filter(
            |e| matches!(&e.kind, EventKind::ProviderLeft { provider } if provider == "dev/slow"),
        )
        .count();
    assert_eq!(left_events, 1, "departure markers must not double-count");

    // Service eviction flushes its final stats exactly once even when
    // called twice.
    gateway.evict_service("svc");
    gateway.evict_service("svc");
    let after = harness.telemetry().snapshot();
    assert_eq!(
        after.service("svc").map(|s| s.plan_cache_stale),
        snapshot.service("svc").map(|s| s.plan_cache_stale),
        "double eviction must not re-flush final stats"
    );
}

// ---------------------------------------------------------------------------
// Satellite 3: DSL round-trip property + typed rejection of malformed JSON.
// ---------------------------------------------------------------------------

/// Builds a valid scenario from quantized primitives (all floats are
/// sixteenths, exactly representable, so equality is exact).
#[allow(clippy::too_many_arguments)]
fn build_scenario(
    seed: u64,
    slots: u32,
    slot_ms: u64,
    requests: u32,
    n_services: usize,
    n_ms: usize,
    cost_q: u32,
    lat_q: u32,
    rel_q: u32,
    mult_q: u32,
    with_load: bool,
    with_storm: bool,
    with_churn: bool,
    with_background: bool,
) -> Scenario {
    let services: Vec<ServiceDef> = (0..n_services)
        .map(|s| ServiceDef {
            name: format!("svc{s}"),
            class: None,
            microservices: (0..n_ms)
                .map(|m| MsDef {
                    name: format!("m{m}"),
                    cost: f64::from(cost_q + m as u32) / 16.0,
                    latency_ms: f64::from(lat_q + m as u32) / 16.0,
                    reliability: f64::from(rel_q.min(16)) / 16.0,
                })
                .collect(),
            require: Require {
                cost: f64::from(cost_q + 64) / 16.0 * n_ms as f64,
                latency_ms: f64::from(lat_q + 64) / 16.0 * n_ms as f64,
                reliability: 0.5,
            },
            penalty_k: (s % 2 == 0).then_some(2.5),
            quorum: None,
        })
        .collect();
    let horizon = u64::from(slots) * slot_ms;
    Scenario {
        name: "prop".to_string(),
        seed,
        slots,
        slot_ms,
        requests_per_slot: requests,
        services,
        load: if with_load {
            vec![LoadPhase {
                from_slot: 0,
                to_slot: slots,
                multiplier: f64::from(mult_q) / 16.0,
                burst: 0,
                classes: Vec::new(),
            }]
        } else {
            Vec::new()
        },
        storms: if with_storm {
            vec![Storm {
                name: "storm0".to_string(),
                group: (0..n_ms).map(|m| format!("svc0/m{m}")).collect(),
                from_ms: 0,
                to_ms: slot_ms,
            }]
        } else {
            Vec::new()
        },
        churn: if with_churn {
            vec![Churn {
                provider: "svc0/m0".to_string(),
                leave_ms: 0,
                rejoin_ms: Some(horizon),
            }]
        } else {
            Vec::new()
        },
        background: with_background.then_some(BackgroundFaults {
            mean_time_between_ms: 50,
            mean_duration_ms: 20,
            crash_weight: 1,
            latency_weight: 1,
            latency_spike_ms: 30,
        }),
        gateway: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(serialize(s)) == s for valid scenarios.
    #[test]
    fn scenario_json_round_trips(
        seed in any::<u64>(),
        slots in 1u32..6,
        slot_ms in 1u64..500,
        requests in 0u32..50,
        n_services in 1usize..4,
        n_ms in 1usize..5,
        cost_q in 0u32..1000,
        lat_q in 0u32..1000,
        rel_q in 0u32..=16,
        mult_q in 0u32..64,
        with_load in any::<bool>(),
        with_storm in any::<bool>(),
        with_churn in any::<bool>(),
        with_background in any::<bool>(),
    ) {
        let scenario = build_scenario(
            seed, slots, slot_ms, requests, n_services, n_ms, cost_q, lat_q, rel_q, mult_q,
            with_load, with_storm, with_churn, with_background,
        );
        prop_assert!(scenario.validate().is_ok(), "fixture must be valid by construction");
        let json = scenario.to_json();
        let back = Scenario::from_json(&json).unwrap();
        prop_assert_eq!(&back, &scenario);
        // Serialization is a fixpoint: one more round trip is byte-stable.
        prop_assert_eq!(back.to_json(), json);
    }
}

#[test]
fn malformed_scenario_json_is_rejected_with_typed_errors() {
    let valid = build_scenario(1, 2, 100, 4, 1, 2, 16, 16, 16, 16, false, true, true, false);

    // Not JSON at all.
    assert!(matches!(
        Scenario::from_json("definitely { not json"),
        Err(ScenarioError::Parse { .. })
    ));
    // JSON, but not a scenario.
    assert!(matches!(
        Scenario::from_json("{\"name\": \"x\"}"),
        Err(ScenarioError::Parse { .. })
    ));

    // Structurally valid JSON failing semantic validation: every mutation
    // maps to its typed error.
    let mut s = valid.clone();
    s.storms[0].group.clear();
    assert!(matches!(
        Scenario::from_json(&s.to_json()),
        Err(ScenarioError::EmptyStormGroup { .. })
    ));

    let mut s = valid.clone();
    s.churn.push(Churn {
        provider: "svc0/m0".to_string(),
        leave_ms: 50,
        rejoin_ms: None,
    });
    assert!(matches!(
        Scenario::from_json(&s.to_json()),
        Err(ScenarioError::OverlappingChurn { .. })
    ));

    let mut s = valid.clone();
    s.storms[0].group = vec!["ghost/m9".to_string()];
    assert!(matches!(
        Scenario::from_json(&s.to_json()),
        Err(ScenarioError::UnknownProvider { .. })
    ));

    let mut s = valid.clone();
    s.storms[0].to_ms = s.storms[0].from_ms;
    assert!(matches!(
        Scenario::from_json(&s.to_json()),
        Err(ScenarioError::BadWindow { .. })
    ));

    // NaN cannot round-trip through JSON (the serializer writes null), so
    // the parse itself must fail — typed, not a panic.
    let mut s = valid;
    s.load.push(LoadPhase {
        from_slot: 0,
        to_slot: 1,
        multiplier: f64::NAN,
        burst: 0,
        classes: Vec::new(),
    });
    assert!(Scenario::from_json(&s.to_json()).is_err());
    // And the in-memory validation path reports it as non-finite.
    assert!(matches!(s.validate(), Err(ScenarioError::NonFinite { .. })));
}

// ---------------------------------------------------------------------------
// End-to-end smoke: a storm scenario replays deterministically twice.
// ---------------------------------------------------------------------------

#[test]
fn storm_scenario_replays_identically() {
    let scenario = Scenario {
        name: "storm-replay".to_string(),
        seed: 99,
        slots: 6,
        slot_ms: 100,
        requests_per_slot: 10,
        load: Vec::new(),
        services: vec![ServiceDef {
            name: "svc".to_string(),
            class: None,
            microservices: vec![
                MsDef {
                    name: "a".to_string(),
                    cost: 10.0,
                    latency_ms: 2.0,
                    reliability: 0.9,
                },
                MsDef {
                    name: "b".to_string(),
                    cost: 20.0,
                    latency_ms: 4.0,
                    reliability: 0.95,
                },
            ],
            require: Require {
                cost: 100.0,
                latency_ms: 50.0,
                reliability: 0.85,
            },
            penalty_k: None,
            quorum: None,
        }],
        storms: vec![Storm {
            name: "radio".to_string(),
            group: vec!["svc/a".to_string(), "svc/b".to_string()],
            from_ms: 200,
            to_ms: 300,
        }],
        churn: Vec::new(),
        background: None,
        gateway: Default::default(),
    };
    let a = qce_runtime::scenario::run_scenario(&scenario)
        .unwrap()
        .outcome;
    let b = qce_runtime::scenario::run_scenario(&scenario)
        .unwrap()
        .outcome;
    assert_eq!(a, b, "same scenario, same seed, same outcome");
    assert_eq!(a.per_slot[2].satisfaction_rate, 0.0, "blackout slot");
    let lags = a.adaptation_lags(0.8);
    assert!(
        matches!(lags[0].1, Some(lag) if lag <= 1),
        "recovery within a slot of the storm clearing: {lags:?}"
    );
    // Shed never happened; failures only inside the storm window.
    assert_eq!(a.total_shed, 0);
}

// Keep the unused-import lint honest: RuntimeError appears in match arms of
// helper closures only on some code paths.
#[allow(dead_code)]
fn _uses(err: RuntimeError) -> String {
    err.to_string()
}
