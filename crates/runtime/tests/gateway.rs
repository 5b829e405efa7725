//! The gateway through its public API: the feedback loop (fetch, plan per
//! slot, execute, collect), admission and class-aware shedding, live
//! overrides, deadlines, eviction, and the blocking/asynchronous entry
//! points' shared contract.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use qce_runtime::{
    Clock, Gateway, GatewayConfig, InMemoryMarket, Market, MsSpec, PruneReason, QosClass, Request,
    RuntimeError, ServiceResponse, ServiceScript, SimulatedProvider, StrategyOrigin, VirtualClock,
    WorkerGuard,
};
use qce_strategy::{Qos, Requirements};

fn market_with(script: ServiceScript) -> Box<dyn Market> {
    let market = InMemoryMarket::new();
    market.publish(script).unwrap();
    Box::new(market)
}

fn script(slot_size: u32) -> ServiceScript {
    let mut s = ServiceScript::new(
        "temp",
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
            MsSpec {
                name: "readLocTemp".into(),
                capability: "loc-temp".into(),
                prior: Qos::new(50.0, 12.0, 0.7).unwrap(),
            },
        ],
        Requirements::new(100.0, 100.0, 0.97).unwrap(),
    );
    s.slot_size = slot_size;
    s
}

fn register_devices(gateway: &Gateway, reliability: f64) {
    for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
        .iter()
        .enumerate()
    {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                .cost(50.0)
                .latency(Duration::from_millis(*ms))
                .reliability(reliability)
                .seed(i as u64)
                .build(),
        );
    }
}

#[test]
fn unknown_service_is_reported() {
    let gateway = Gateway::new(Box::new(InMemoryMarket::new()), GatewayConfig::default());
    assert!(matches!(
        gateway.submit(Request::new("nope")),
        Err(RuntimeError::UnknownService { .. })
    ));
}

#[test]
fn missing_provider_is_reported() {
    let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
    assert!(matches!(
        gateway.submit(Request::new("temp")),
        Err(RuntimeError::NoProvider { .. })
    ));
}

#[test]
fn first_slot_runs_speculative_parallel_default() {
    let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert!(response.success);
    assert_eq!(response.slot, 0);
    assert_eq!(response.origin, StrategyOrigin::Default);
    assert!(response.strategy.is_parallel());
    assert_eq!(response.strategy_text, "readTempSensor*estTemp*readLocTemp");
    assert_eq!(response.cost, 150.0, "parallel default charges everyone");
}

#[test]
fn second_slot_generates_from_observations() {
    let gateway = Gateway::new(market_with(script(5)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    for _ in 0..5 {
        gateway.submit(Request::new("temp")).unwrap();
    }
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert_eq!(response.slot, 1);
    assert!(matches!(response.origin, StrategyOrigin::Generated(_)));
    // With perfectly reliable observed providers, fail-over on the best
    // one dominates: cost collapses to a single invocation.
    assert_eq!(response.cost, 50.0, "generated strategy avoids redundancy");
    let history = gateway.slot_history("temp");
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].origin, StrategyOrigin::Default);
}

#[test]
fn slot_boundary_respects_slot_size() {
    let gateway = Gateway::new(market_with(script(3)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    let slots: Vec<u64> = (0..7)
        .map(|_| gateway.submit(Request::new("temp")).unwrap().slot)
        .collect();
    assert_eq!(slots, vec![0, 0, 0, 1, 1, 1, 2]);
}

#[test]
fn end_slot_forces_replan() {
    let gateway = Gateway::new(market_with(script(100)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    assert_eq!(gateway.slot_history("temp").len(), 1);
    gateway.end_slot("temp");
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert_eq!(response.slot, 1);
    assert_eq!(gateway.slot_history("temp").len(), 2);
}

#[test]
fn advisory_reported_when_requirements_unreachable() {
    // Impossible requirements: reliability 99.9% from 50%-reliable
    // microservices costs more than the cost budget allows.
    let mut s = script(5);
    s.requirements = Requirements::new(10.0, 1.0, 0.999).unwrap();
    let gateway = Gateway::new(market_with(s), GatewayConfig::default());
    register_devices(&gateway, 0.5);
    for _ in 0..5 {
        let _ = gateway.submit(Request::new("temp")).unwrap();
    }
    let response = gateway.submit(Request::new("temp")).unwrap();
    let advisory = response.advisory.expect("requirements cannot be met");
    assert!(!advisory.violations.is_empty());
}

#[test]
fn current_strategy_uses_names() {
    let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    assert!(gateway.current_strategy("temp").is_none());
    gateway.submit(Request::new("temp")).unwrap();
    let text = gateway.current_strategy("temp").unwrap();
    assert!(text.contains("readTempSensor"), "{text}");
}

#[test]
fn evict_service_forces_refetch() {
    let market = InMemoryMarket::new();
    market.publish(script(10)).unwrap();
    let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    gateway.evict_service("temp");
    assert!(gateway.slot_history("temp").is_empty());
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert_eq!(response.slot, 0, "state restarted");
}

#[test]
fn collector_fills_during_first_slot() {
    let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    // The parallel default invoked every provider once.
    assert_eq!(gateway.collector().provider_ids().len(), 3);
}

#[test]
fn quorum_script_votes_and_costs_double() {
    let mut s = script(10);
    s.quorum = Some(2);
    let gateway = Gateway::new(market_with(s), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert!(response.success);
    let (votes, cast) = response.votes.expect("quorum execution reports votes");
    assert!(votes >= 2, "votes {votes}");
    assert!(cast >= votes);
}

#[test]
fn failed_request_still_reports() {
    let gateway = Gateway::new(market_with(script(10)), GatewayConfig::default());
    register_devices(&gateway, 0.0);
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert!(!response.success);
    assert!(response.payload.is_none());
    assert_eq!(response.cost, 150.0, "all three tried and failed");
}

#[test]
fn failed_replan_does_not_serve_stale_plan() {
    // Regression: every provider departs right at a slot boundary.
    // plan() fails after the slot counter was bumped; the previous
    // slot's plan must NOT keep serving the new slot once planning
    // becomes possible again.
    let gateway = Gateway::new(market_with(script(2)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    gateway.submit(Request::new("temp")).unwrap(); // slot 0 exhausted

    assert!(gateway.registry().deregister("dev0/read-temp"));
    assert!(gateway.registry().deregister("dev1/est-temp"));
    assert!(gateway.registry().deregister("dev2/loc-temp"));
    let error = gateway.submit(Request::new("temp")).unwrap_err();
    assert!(matches!(error, RuntimeError::NoProvider { .. }));
    gateway.registry().register(
        SimulatedProvider::builder("dev1/est-temp", "est-temp")
            .cost(50.0)
            .latency(Duration::from_millis(3))
            .reliability(1.0)
            .build(),
    );
    gateway.registry().register(
        SimulatedProvider::builder("dev2/loc-temp", "loc-temp")
            .cost(50.0)
            .latency(Duration::from_millis(5))
            .reliability(1.0)
            .build(),
    );

    // The device comes back; the very next invocation must re-plan for
    // slot 1 instead of replaying slot 0's strategy.
    gateway.registry().register(
        SimulatedProvider::builder("dev0/read-temp", "read-temp")
            .cost(50.0)
            .latency(Duration::from_millis(2))
            .reliability(1.0)
            .build(),
    );
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert_eq!(response.slot, 1);
    assert!(
        matches!(response.origin, StrategyOrigin::Generated(_)),
        "slot 1 must be freshly planned, got {:?}",
        response.origin
    );
    let history = gateway.slot_history("temp");
    assert_eq!(history.len(), 2, "one record per planned slot");
    assert_eq!(history[1].slot, 1);

    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert_eq!(svc.plan_failures, 1);
    assert!(gateway.telemetry().events().iter().any(|e| matches!(
        &e.kind,
        qce_runtime::telemetry::EventKind::ProviderResolutionFailed { service, slot, .. }
            if service == "temp" && *slot == 1
    )));
}

#[test]
fn plan_degrades_to_surviving_microservices_when_one_capability_is_gone() {
    // Device churn: losing one capability must not take the whole
    // service down — the next slot plans over what it still has.
    let gateway = Gateway::new(market_with(script(2)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    gateway.submit(Request::new("temp")).unwrap(); // slot 0 exhausted

    assert!(gateway.provider_left("dev0/read-temp"));
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert!(response.success);
    assert_eq!(response.slot, 1);
    assert!(
        !response.strategy_text.contains("readTempSensor"),
        "departed capability must not appear in the plan: {}",
        response.strategy_text
    );
    assert!(
        response.strategy_text.contains("estTemp")
            || response.strategy_text.contains("readLocTemp"),
        "plan must use surviving microservices: {}",
        response.strategy_text
    );

    // The device rejoins; the following slot may use it again.
    gateway.provider_joined(
        SimulatedProvider::builder("dev0/read-temp", "read-temp")
            .cost(50.0)
            .latency(Duration::from_millis(2))
            .reliability(1.0)
            .build(),
    );
    gateway.submit(Request::new("temp")).unwrap(); // slot 1 exhausted
    let response = gateway.submit(Request::new("temp")).unwrap();
    assert!(response.success);
    assert_eq!(response.slot, 2);
    let snapshot = gateway.telemetry().snapshot();
    let provider = snapshot.provider("dev0/read-temp").unwrap();
    assert_eq!(provider.departures, 1);
    assert_eq!(provider.rejoins, 1);
}

/// A leg in flight while its provider leaves and re-joins lands in the
/// provider's emptied collector window — the window the slot plan resolved
/// before the churn — exactly as it did when the record re-created a
/// removed entry: one observation, statistics of that record alone, and an
/// emptied window is never listed in between.
#[test]
fn a_leg_in_flight_across_churn_lands_in_the_emptied_window() {
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let gateway = Arc::new(Gateway::with_clock(
        market_with(script(1_000)),
        GatewayConfig::default(),
        Arc::clone(&clock),
    ));
    let devices: Vec<Arc<SimulatedProvider>> =
        [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
            .iter()
            .enumerate()
            .map(|(i, (cap, ms))| {
                SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                    .cost(40.0 + i as f64)
                    .latency(Duration::from_millis(*ms))
                    .clock(Arc::clone(&clock))
                    .build()
            })
            .collect();
    for device in &devices {
        gateway
            .registry()
            .register(Arc::clone(device) as Arc<dyn qce_runtime::Provider>);
    }
    let churned = "dev1/est-temp";
    let collector = gateway.collector();
    for _ in 0..3 {
        assert!(gateway.submit(Request::new("temp")).unwrap().success);
    }
    assert_eq!(collector.observation_count(churned), 3);

    // This thread, registered and running, holds virtual time still: the
    // request's three legs are started and none can complete.
    let pinned = WorkerGuard::enter(&*clock);
    let handle = gateway.submit_async(Request::new("temp")).unwrap();
    let start = std::time::Instant::now();
    while gateway.engine_stats().in_flight == 0 {
        assert!(start.elapsed() < Duration::from_secs(20), "never started");
        std::thread::yield_now();
    }
    assert!(gateway.provider_left(churned));
    assert_eq!(collector.observation_count(churned), 0);
    assert!(collector.stats(churned).is_none());
    assert!(!collector.provider_ids().iter().any(|id| id == churned));
    gateway.provider_joined(Arc::clone(&devices[1]) as Arc<dyn qce_runtime::Provider>);
    assert!(!collector.provider_ids().iter().any(|id| id == churned));

    assert!(handle.wait().unwrap().success);
    drop(pinned);
    assert_eq!(collector.observation_count(churned), 1);
    let stats = collector.stats(churned).unwrap();
    assert_eq!(
        (
            stats.count,
            stats.success_rate,
            stats.mean_latency_ms,
            stats.mean_cost
        ),
        (1, 1.0, 3.0, 41.0)
    );
    assert!(collector.provider_ids().iter().any(|id| id == churned));
    assert_eq!(collector.observation_count("dev0/read-temp"), 4);
}

#[test]
fn history_is_bounded_and_evictions_are_counted() {
    // A service keeps its newest 1 024 slot records; slots are one
    // request long here, so 1 030 requests evict the first six.
    let gateway = drift_gateway(GatewayConfig::default(), 1.0);
    for _ in 0..1030 {
        gateway.submit(Request::new("temp")).unwrap();
    }
    let history = gateway.slot_history("temp");
    assert_eq!(history.len(), 1024, "ring keeps only the newest records");
    let slots: Vec<u64> = history.iter().map(|r| r.slot).collect();
    assert_eq!(
        slots,
        (6..1030).collect::<Vec<u64>>(),
        "oldest slots were evicted first"
    );
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.service("temp").unwrap().history_evicted, 6);
}

/// Regression: a zero window reached `Collector::new`'s assertion and
/// panicked; it is served as a window of one.
#[test]
fn zero_collector_window_serves_as_a_window_of_one() {
    let config = GatewayConfig::builder().collector_window(0).build();
    let gateway = Gateway::new(market_with(script(1)), config);
    register_devices(&gateway, 1.0);
    for _ in 0..3 {
        assert!(gateway.submit(Request::new("temp")).unwrap().success);
    }
    assert_eq!(gateway.collector().observation_count("dev0/read-temp"), 1);
}

/// Builds a virtual-clock gateway with three perfectly reliable
/// providers (bit-reproducible latencies), for the drift-trigger
/// tests.
fn drift_gateway(config: GatewayConfig, reliability: f64) -> Gateway {
    use qce_runtime::clock::VirtualClock;
    let clock = Arc::new(VirtualClock::new());
    let gateway = Gateway::with_clock(
        market_with(script(1)),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
        .iter()
        .enumerate()
    {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                .cost(50.0)
                .latency(Duration::from_millis(*ms))
                .reliability(reliability)
                .seed(i as u64)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    gateway
}

#[test]
fn drift_trigger_holds_stable_plans() {
    use qce_runtime::telemetry::EventKind;
    // Virtual time: after the priors-vs-observations jump at slot 1,
    // the assumed environment is bit-identical at every boundary, so
    // drift mode plans exactly twice and holds the rest.
    let config = GatewayConfig::builder().replan_on_drift(true).build();
    let gateway = drift_gateway(config, 1.0);
    let slots: Vec<u64> = (0..6)
        .map(|_| gateway.submit(Request::new("temp")).unwrap().slot)
        .collect();
    assert_eq!(slots, vec![0, 1, 2, 3, 4, 5], "slots still advance");
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert_eq!(svc.replans, 2, "slot 0 default + the slot-1 drift");
    assert_eq!(svc.drift_replans, 1, "only slot 1 left the band");
    assert_eq!(svc.drift_holds, 4, "slots 2-5 held the generated plan");
    let triggers: Vec<(u64, f64)> = snapshot
        .recent_events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ReplanTriggered { slot, drift, .. } => Some((*slot, *drift)),
            _ => None,
        })
        .collect();
    assert_eq!(triggers.len(), 1);
    assert_eq!(triggers[0].0, 1);
    assert!(triggers[0].1 > 0.0 && triggers[0].1 <= 1.0);
    // The cadence baseline re-plans at all six boundaries.
    let cadence = drift_gateway(GatewayConfig::default(), 1.0);
    for _ in 0..6 {
        cadence.submit(Request::new("temp")).unwrap();
    }
    let base = cadence.telemetry().snapshot();
    assert_eq!(base.service("temp").unwrap().replans, 6);
}

#[test]
fn drift_trigger_fires_on_unstable_observations() {
    // Flaky providers (seeded, deterministic): the collector's
    // reliability mean moves between boundaries, so drift mode keeps
    // re-planning instead of holding a stale plan.
    let config = GatewayConfig::builder().replan_on_drift(true).build();
    let gateway = drift_gateway(config, 0.5);
    for _ in 0..8 {
        let _ = gateway.submit(Request::new("temp"));
    }
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert!(
        svc.drift_replans >= 2,
        "unstable observations must keep tripping the trigger \
         (drift_replans={}, drift_holds={})",
        svc.drift_replans,
        svc.drift_holds
    );
}

#[test]
fn drift_hold_never_survives_a_requirement_override() {
    // A zero-drift boundary must still re-plan when a live override
    // changed the effective requirement: the held plan was synthesized
    // for a demand the operator just replaced.
    let config = GatewayConfig::builder().replan_on_drift(true).build();
    let gateway = drift_gateway(config, 1.0);
    for _ in 0..4 {
        gateway.submit(Request::new("temp")).unwrap();
    }
    let before = gateway.telemetry().snapshot();
    let before_svc = before.service("temp").unwrap();
    assert_eq!(before_svc.replans, 2, "steady state: holding");
    gateway
        .control()
        .set_requirement("temp", Requirements::new(500.0, 500.0, 0.5).unwrap());
    gateway.submit(Request::new("temp")).unwrap();
    let after = gateway.telemetry().snapshot();
    let after_svc = after.service("temp").unwrap();
    assert_eq!(
        after_svc.replans,
        before_svc.replans + 1,
        "the override boundary re-planned despite zero drift"
    );
}

#[test]
fn drift_replay_byte_identical_telemetry() {
    use qce_runtime::telemetry::EventKind;
    // Satellite property: the drift trigger is deterministic. Two
    // identical runs must produce byte-identical telemetry event streams
    // once the one wall-clock field (synthesis elapsed) is zeroed.
    let run = || {
        let config = GatewayConfig::builder()
            .replan_on_drift(true)
            .planner(qce_strategy::BackendChoice::Beam(4))
            .generator_parallelism(1)
            .build();
        let gateway = drift_gateway(config, 0.5);
        for _ in 0..10 {
            let _ = gateway.submit(Request::new("temp"));
        }
        let events: Vec<qce_runtime::telemetry::TelemetryEvent> = gateway
            .telemetry()
            .events()
            .iter()
            .cloned()
            .map(|mut e| {
                if let EventKind::SlotReplanned { elapsed, .. } = &mut e.kind {
                    *elapsed = Duration::ZERO;
                }
                e
            })
            .collect();
        serde_json::to_string(&events).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "replayed telemetry streams diverged");
    // The streams exercise the drift event, not a vacuous equality of
    // empty rings.
    let events: Vec<qce_runtime::telemetry::TelemetryEvent> = serde_json::from_str(&first).unwrap();
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ReplanTriggered { .. })));
}

#[test]
fn drift_mode_drops_a_departed_provider_and_readmits_a_rejoined_one() {
    // The default `a-b-c` runs `a` only, so the slot-1 plan never calls
    // `b` and its window stays empty: the departure leaves every cell of
    // the held plan's table unchanged. The boundary must still notice the
    // provider set moved — a deregistered device is never served again,
    // and a re-joined one is planned over at once.
    use qce_runtime::clock::VirtualClock;
    let clock = Arc::new(VirtualClock::new());
    let mut s = script(1);
    s.default_strategy = Some("readTempSensor-estTemp-readLocTemp".into());
    let config = GatewayConfig::builder().replan_on_drift(true).build();
    let gateway = Gateway::with_clock(market_with(s), config, Arc::clone(&clock) as Arc<dyn Clock>);
    let device = |i: usize, cap: &str, ms: u64| {
        SimulatedProvider::builder(format!("dev{i}/{cap}"), cap)
            .cost(50.0)
            .latency(Duration::from_millis(ms))
            .seed(i as u64)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build()
    };
    gateway.registry().register(device(0, "read-temp", 2));
    gateway.registry().register(device(1, "est-temp", 3));
    gateway.registry().register(device(2, "loc-temp", 5));
    let serve = || {
        let response = gateway.submit(Request::new("temp")).unwrap();
        (response.slot, response.strategy_text)
    };
    for _ in 0..3 {
        serve();
    }
    assert_eq!(
        gateway.collector().observation_count("dev1/est-temp"),
        0,
        "the setup holds a plan whose `estTemp` never ran"
    );

    assert!(gateway.provider_left("dev1/est-temp"));
    for _ in 0..3 {
        let (slot, strategy) = serve();
        assert!(
            !strategy.contains("estTemp"),
            "slot {slot} served {strategy} after its device left"
        );
    }

    gateway.provider_joined(device(1, "est-temp", 3));
    let (slot, strategy) = serve();
    assert!(
        strategy.contains("estTemp"),
        "slot {slot} served {strategy} after the device re-joined"
    );
    let history = gateway.slot_history("temp");
    assert_eq!(history.last().unwrap().slot, slot, "the rejoin re-planned");
}

#[test]
fn a_nan_requirement_override_fails_the_replan_instead_of_panicking() {
    use qce_runtime::telemetry::EventKind;
    // `Requirements`' fields are public, so an override can carry a NaN
    // that `Requirements::new` would have refused. Provider selection
    // divides by it; the boundary must reject it as the planner does.
    let gateway = drift_gateway(GatewayConfig::default(), 1.0);
    gateway.submit(Request::new("temp")).unwrap();
    let nan = Requirements {
        cost: f64::NAN,
        ..Requirements::new(100.0, 100.0, 0.97).unwrap()
    };
    gateway.control().set_requirement("temp", nan);
    let error = gateway.submit(Request::new("temp")).unwrap_err();
    assert!(
        matches!(&error, RuntimeError::Generation { reason } if reason.contains("NaN")),
        "{error}"
    );
    let snapshot = gateway.telemetry().snapshot();
    assert!(snapshot
        .recent_events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::PlanFailed { slot: 1, .. })));
    // A valid override brings the service back.
    gateway
        .control()
        .set_requirement("temp", Requirements::new(100.0, 100.0, 0.97).unwrap());
    assert!(gateway.submit(Request::new("temp")).unwrap().success);
}

/// A request whose own requirement `Requirements::new` would refuse.
fn nan_requirement_request() -> Request {
    let nan = Requirements {
        cost: f64::NAN,
        ..Requirements::new(100.0, 100.0, 0.97).unwrap()
    };
    Request::new("temp").requirement(nan)
}

fn assert_refused_as_invalid(error: &RuntimeError) {
    assert!(
        matches!(error, RuntimeError::Generation { reason } if reason.contains("NaN")),
        "{error}"
    );
}

#[test]
fn a_nan_request_requirement_is_refused_by_a_blocking_submit() {
    // The response's advisory judges the slot against the request's own
    // requirement, so a NaN one is refused before admission.
    let gateway = drift_gateway(GatewayConfig::default(), 1.0);
    let error = gateway.submit(nan_requirement_request()).unwrap_err();
    assert_refused_as_invalid(&error);
    assert!(gateway.submit(Request::new("temp")).unwrap().success);
}

#[test]
fn a_nan_request_requirement_is_refused_by_submit_async_and_the_loop_lives_on() {
    let gateway = Arc::new(drift_gateway(GatewayConfig::default(), 1.0));
    // Once with the loops not yet started, once with them running.
    let error = gateway.submit_async(nan_requirement_request()).unwrap_err();
    assert_refused_as_invalid(&error);
    let started = gateway.submit_async(Request::new("temp")).unwrap();
    assert!(started.wait().unwrap().success);
    let error = gateway.submit_async(nan_requirement_request()).unwrap_err();
    assert_refused_as_invalid(&error);
    let mut handle = gateway.submit_async(Request::new("temp")).unwrap();
    let start = std::time::Instant::now();
    let response = loop {
        match handle.try_wait() {
            Ok(result) => break result.unwrap(),
            Err(pending) => handle = pending,
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "the event loop died"
        );
        std::thread::yield_now();
    };
    assert!(response.success);
}

#[test]
fn a_script_with_an_invalid_requirement_never_reaches_planning() {
    // Equation 1 divides by the requirement: a zero cost bound must be
    // refused before the first request, wherever the script comes from.
    let mut s = script(1);
    s.requirements.cost = 0.0;
    assert!(matches!(
        InMemoryMarket::new().publish(s.clone()),
        Err(RuntimeError::InvalidScript { .. })
    ));
    // A market that hands the script over unvetted is vetted at fetch.
    struct Unvetted(ServiceScript);
    impl Market for Unvetted {
        fn fetch(&self, _: &str) -> Result<ServiceScript, RuntimeError> {
            Ok(self.0.clone())
        }
        fn service_ids(&self) -> Vec<String> {
            vec![self.0.service_id.clone()]
        }
    }
    let gateway = Gateway::new(Box::new(Unvetted(s)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    assert!(matches!(
        gateway.submit(Request::new("temp")),
        Err(RuntimeError::InvalidScript { .. })
    ));
}

#[test]
fn plan_cache_surfaces_in_telemetry() {
    use qce_runtime::clock::VirtualClock;
    use qce_runtime::telemetry::EventKind;
    use qce_strategy::PlanSource;

    // Virtual time makes provider latencies exactly reproducible, so
    // the collector means — and with them the assumed environment —
    // are bit-identical from slot to slot: the plan cache must hit.
    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder().plan_cache(true).build();
    let gateway = Gateway::with_clock(
        market_with(script(1)),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
        .iter()
        .enumerate()
    {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                .cost(50.0)
                .latency(Duration::from_millis(*ms))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    for _ in 0..6 {
        assert!(gateway.submit(Request::new("temp")).unwrap().success);
    }
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert_eq!(svc.replans, 6, "slot_size 1: one re-plan per invocation");
    assert_eq!(svc.plans_cold, 1, "slot 1 is the first real search");
    assert_eq!(
        svc.plans_cached, 4,
        "slots 2-5 see a bit-identical environment"
    );
    assert_eq!(svc.plan_cache_hits, 4);
    assert_eq!(svc.plan_cache_misses, 1);
    // The replan events carry the provenance (None for slot 0's
    // unsearched default).
    let sources: Vec<Option<PlanSource>> = snapshot
        .recent_events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SlotReplanned { source, .. } => Some(*source),
            _ => None,
        })
        .collect();
    assert_eq!(sources[0], None);
    assert_eq!(sources[1], Some(PlanSource::Cold));
    assert!(sources[2..].iter().all(|s| *s == Some(PlanSource::Cached)));
    // Eviction invalidates the cache and surfaces the drop as stale.
    gateway.evict_service("temp");
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert!(svc.plan_cache_stale >= 1, "evicted entries counted stale");
}

/// A gate the tests use to hold a provider open until released, with a
/// count of how many invocations have entered it.
struct TestGate {
    state: StdMutex<(bool, u32)>,
    cond: Condvar,
}

impl TestGate {
    fn new() -> Arc<Self> {
        Arc::new(TestGate {
            state: StdMutex::new((false, 0)),
            cond: Condvar::new(),
        })
    }

    /// Blocks the calling provider until [`TestGate::open`], counting it
    /// as entered first.
    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cond.notify_all();
        while !state.0 {
            state = self.cond.wait(state).unwrap();
        }
    }

    /// Waits until `n` provider invocations are blocked inside the gate.
    fn await_entered(&self, n: u32) {
        let mut state = self.state.lock().unwrap();
        while state.1 < n {
            state = self.cond.wait(state).unwrap();
        }
    }

    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cond.notify_all();
    }
}

fn one_ms_script() -> ServiceScript {
    let mut s = ServiceScript::new(
        "svc",
        vec![MsSpec {
            name: "a".into(),
            capability: "cap-a".into(),
            prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
        }],
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    );
    s.slot_size = 100;
    s
}

/// Two microservices with the sequential fail-over default `a-b`, so a
/// budget tripping between the legs has something left to prune.
fn seq_script() -> ServiceScript {
    let mut s = ServiceScript::new(
        "svc",
        vec![
            MsSpec {
                name: "a".into(),
                capability: "cap-a".into(),
                prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
            },
            MsSpec {
                name: "b".into(),
                capability: "cap-b".into(),
                prior: Qos::new(50.0, 5.0, 0.9).unwrap(),
            },
        ],
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    );
    s.default_strategy = Some("a-b".to_string());
    s.slot_size = 100;
    s
}

#[test]
fn concurrent_invocations_of_one_service_run_in_parallel() {
    use std::sync::Barrier;

    let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
    // Both invocations must be inside the provider at the same moment,
    // or the barrier never releases and the test hangs.
    let rendezvous = Arc::new(Barrier::new(2));
    let barrier = Arc::clone(&rendezvous);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                barrier.wait();
                Ok(vec![1])
            },
        ));
    std::thread::scope(|scope| {
        let a = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        let b = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        assert!(a.join().unwrap().success);
        assert!(b.join().unwrap().success);
    });
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.service("svc").unwrap().invocations, 2);
}

#[test]
fn admission_sheds_past_the_queue_and_counts_it() {
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(0)
        .build();
    let gateway = Gateway::new(market_with(one_ms_script()), config);
    let gate = TestGate::new();
    let provider_gate = Arc::clone(&gate);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
    std::thread::scope(|scope| {
        let running = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        gate.await_entered(1);
        // The service is at its limit with no queue: shed immediately.
        let shed = gateway.submit(Request::new("svc"));
        assert!(matches!(shed, Err(RuntimeError::Overloaded { .. })));
        gate.open();
        assert!(running.join().unwrap().success);
    });
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.requests_shed, 1);
    assert_eq!(svc.invocations, 1, "the shed request never executed");
    assert!(gateway.telemetry().events().iter().any(|e| matches!(
        &e.kind,
        qce_runtime::telemetry::EventKind::RequestShed {
            service,
            class,
            in_flight,
            queued,
        } if service == "svc"
            && *class == QosClass::Interactive
            && *in_flight == 1
            && *queued == 0
    )));
}

#[test]
fn queued_request_waits_for_a_slot_and_proceeds() {
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(4)
        .build();
    let gateway = Gateway::new(market_with(one_ms_script()), config);
    let gate = TestGate::new();
    let provider_gate = Arc::clone(&gate);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        gate.await_entered(1);
        let queued = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        // Wait until the second request is visibly parked in the
        // admission queue before releasing the first.
        while gateway
            .telemetry()
            .snapshot()
            .service("svc")
            .map_or(0, |s| s.admission_queue_peak)
            < 1
        {
            std::thread::yield_now();
        }
        gate.open();
        assert!(first.join().unwrap().success);
        assert!(queued.join().unwrap().success);
    });
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.requests_shed, 0, "the queue absorbed the burst");
    assert_eq!(svc.admission_queue_peak, 1);
    assert_eq!(svc.admission_queue_depth, 0, "queue drained");
    assert_eq!(svc.invocations, 2);
}

/// A caller that is already a registered clock worker (a load
/// generator that pins its clients to virtual time) must park
/// *passively* while queued for admission: if its condvar wait counted
/// as an active worker, virtual time could never advance over the
/// in-flight request it is waiting on, and the gateway would deadlock.
#[test]
fn registered_caller_queues_passively_without_stalling_virtual_time() {
    use qce_runtime::clock::{VirtualClock, WorkerGuard};

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(4)
        .build();
    let gateway = Gateway::with_clock(
        market_with(one_ms_script()),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let gate = TestGate::new();
    let provider_gate = Arc::clone(&gate);
    let provider_clock = Arc::clone(&clock);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                provider_clock.sleep(Duration::from_millis(8));
                Ok(vec![1])
            },
        ));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| {
            let _worker = WorkerGuard::enter(&*clock);
            gateway.submit(Request::new("svc")).unwrap()
        });
        gate.await_entered(1);
        let queued = scope.spawn(|| {
            let _worker = WorkerGuard::enter(&*clock);
            gateway.submit(Request::new("svc")).unwrap()
        });
        // The second caller must be parked in the admission queue
        // before the first is released, or it would be admitted
        // directly and never exercise the passive wait.
        while gateway
            .telemetry()
            .snapshot()
            .service("svc")
            .map_or(0, |s| s.admission_queue_peak)
            < 1
        {
            std::thread::yield_now();
        }
        gate.open();
        assert!(first.join().unwrap().success);
        assert!(queued.join().unwrap().success);
    });
    // Each request slept 8 virtual ms, strictly serialised by the
    // in-flight limit of one.
    assert_eq!(clock.now(), Duration::from_millis(16));
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.requests_shed, 0);
    assert_eq!(svc.admission_queue_peak, 1);
    assert_eq!(svc.invocations, 2);
}

#[test]
fn deadline_prunes_unstarted_legs_and_is_counted() {
    use qce_runtime::clock::VirtualClock;

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder()
        .request_deadline(Some(Duration::from_millis(8)))
        .build();
    let gateway = Gateway::with_clock(
        market_with(seq_script()),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    // Leg `a` fails after 16 virtual ms — past the 8 ms deadline — so
    // fail-over leg `b` must be pruned, not started.
    for (cap, reliability, ms) in [("cap-a", 0.0, 16u64), ("cap-b", 1.0, 1)] {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev/{cap}"), cap)
                .cost(50.0)
                .latency(Duration::from_millis(ms))
                .reliability(reliability)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    let response = gateway.submit(Request::new("svc")).unwrap();
    assert!(!response.success);
    assert_eq!(response.pruned, Some(PruneReason::DeadlineExceeded));
    assert_eq!(response.cost, 50.0, "leg b never started, never charged");
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.service("svc").unwrap().deadline_exceeded, 1);
    assert!(gateway.telemetry().events().iter().any(|e| matches!(
        &e.kind,
        qce_runtime::telemetry::EventKind::DeadlineExceeded { service, .. } if service == "svc"
    )));
}

#[test]
fn evict_during_in_flight_cancels_the_request_and_flushes_once() {
    use std::sync::atomic::AtomicU32;

    use qce_runtime::clock::VirtualClock;

    let clock = Arc::new(VirtualClock::new());
    let gateway = Gateway::with_clock(
        market_with(seq_script()),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let gate = TestGate::new();
    let provider_gate = Arc::clone(&gate);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            50.0,
            move |_| {
                provider_gate.enter();
                Err(qce_runtime::message::InvokeError::ExecutionFailed {
                    reason: "noisy".to_string(),
                })
            },
        ));
    let b_calls = Arc::new(AtomicU32::new(0));
    let b_counter = Arc::clone(&b_calls);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-b",
            "cap-b",
            50.0,
            move |_| {
                b_counter.fetch_add(1, Ordering::SeqCst);
                Ok(vec![2])
            },
        ));
    std::thread::scope(|scope| {
        let in_flight = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        // The request is mid-leg-`a` when the service is evicted.
        gate.await_entered(1);
        gateway.evict_service("svc");
        assert!(gateway.slot_history("svc").is_empty(), "state dropped");
        // A second eviction finds nothing left to invalidate or flush.
        gateway.evict_service("svc");
        gate.open();
        let response = in_flight.join().unwrap();
        assert!(!response.success);
        assert_eq!(response.pruned, Some(PruneReason::Cancelled));
        assert_eq!(response.cost, 50.0, "only leg a was charged");
    });
    assert_eq!(
        b_calls.load(Ordering::SeqCst),
        0,
        "fail-over leg b was pruned by the eviction"
    );
    // The service restarts cleanly: a fresh invocation re-fetches the
    // script and, with the gate now open, fails over from a to b.
    let response = gateway.submit(Request::new("svc")).unwrap();
    assert!(response.success);
    assert_eq!(response.slot, 0, "fresh state");
    assert_eq!(response.pruned, None);
    assert_eq!(b_calls.load(Ordering::SeqCst), 1);
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.market.fetches, 2, "evicted script re-fetched");
}

#[test]
fn critical_preempts_a_queued_scavenger_slot() {
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(1)
        .build();
    let gateway = Gateway::new(market_with(one_ms_script()), config);
    let gate = TestGate::new();
    let provider_gate = Arc::clone(&gate);
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            move |_| {
                provider_gate.enter();
                Ok(vec![1])
            },
        ));
    std::thread::scope(|scope| {
        let running = scope.spawn(|| gateway.submit(Request::new("svc")).unwrap());
        gate.await_entered(1);
        let scavenger =
            scope.spawn(|| gateway.submit(Request::new("svc").class(QosClass::Scavenger)));
        // The scavenger must be visibly parked in the (single-slot)
        // queue before the Critical arrival.
        while gateway
            .telemetry()
            .snapshot()
            .service("svc")
            .map_or(0, |s| s.admission_queue_peak)
            < 1
        {
            std::thread::yield_now();
        }
        let critical = scope.spawn(|| {
            gateway
                .submit(Request::new("svc").class(QosClass::Critical))
                .unwrap()
        });
        match scavenger.join().unwrap() {
            Err(RuntimeError::Overloaded {
                service_id, class, ..
            }) => {
                assert_eq!(service_id, "svc");
                assert_eq!(class, QosClass::Scavenger, "the waiter was preempted");
            }
            other => panic!("scavenger should have been shed, got {other:?}"),
        }
        gate.open();
        assert!(running.join().unwrap().success);
        let response = critical.join().unwrap();
        assert!(response.success);
        assert_eq!(response.class, QosClass::Critical);
    });
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.requests_shed, 1);
    assert_eq!(svc.class(QosClass::Scavenger).unwrap().shed, 1);
    assert_eq!(svc.class(QosClass::Critical).unwrap().shed, 0);
    assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
}

/// Satellite regression test: every `control()` override emits exactly
/// one telemetry event and applies from the next admission decision.
#[test]
fn control_override_emits_one_event_and_applies_to_the_next_request() {
    use qce_runtime::telemetry::EventKind;

    let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
    gateway
        .registry()
        .register(qce_runtime::device::FnProvider::new(
            "dev-a",
            "cap-a",
            10.0,
            |_| Ok(vec![1]),
        ));
    let before = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(before.class, QosClass::Interactive, "default class");

    gateway.control().set_class("svc", QosClass::Bulk);
    let override_events = gateway
        .telemetry()
        .events()
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                EventKind::OverrideApplied { service, field, value }
                    if service == "svc" && field == "class" && value == "bulk"
            )
        })
        .count();
    assert_eq!(override_events, 1, "exactly one event per override");

    let after = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(
        after.class,
        QosClass::Bulk,
        "override applied to the next admission decision"
    );
    let explicit = gateway
        .submit(Request::new("svc").class(QosClass::Critical))
        .unwrap();
    assert_eq!(
        explicit.class,
        QosClass::Critical,
        "an explicit request class outranks the override"
    );

    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.overrides, 1);
    assert_eq!(svc.class(QosClass::Interactive).unwrap().requests, 1);
    assert_eq!(svc.class(QosClass::Bulk).unwrap().requests, 1);
    assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
}

#[test]
fn requirement_override_retunes_the_advisory_without_replanning() {
    let gateway = Gateway::new(market_with(one_ms_script()), GatewayConfig::default());
    gateway.registry().register(
        SimulatedProvider::builder("dev/cap-a", "cap-a")
            .cost(50.0)
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .build(),
    );
    gateway.submit(Request::new("svc")).unwrap();
    gateway.end_slot("svc");
    let calm = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(calm.slot, 1);
    assert!(calm.advisory.is_none(), "requirements are easily met");
    let replans_before = gateway
        .telemetry()
        .snapshot()
        .service("svc")
        .unwrap()
        .replans;

    // An (unmeetable) requirement override flips the advisory on the
    // very next request of the same slot — no re-plan involved.
    gateway
        .control()
        .set_requirement("svc", Requirements::new(0.01, 0.001, 0.9999).unwrap());
    let judged = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(judged.slot, 1, "same slot");
    assert!(
        judged.advisory.is_some(),
        "estimated QoS violates the overridden requirement"
    );
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.replans, replans_before, "no re-plan happened");
    assert_eq!(svc.overrides, 1);
}

/// Headline regression test (stale plan on live override): a
/// requirement override mid-slot must invalidate the plans cached under
/// the old requirement — the next slot boundary
/// must re-plan **cold** against the new requirement, not serve the
/// pre-override winner. Pre-fix, the boundary re-planned with the
/// script requirement (same cache key, nothing invalidated) and served
/// the stale cached plan: `source` came back `Cached` and the response
/// ran the old strategy, violating the overridden requirement.
#[test]
fn requirement_override_invalidates_plans_and_replans_cold() {
    use qce_runtime::clock::VirtualClock;
    use qce_runtime::telemetry::EventKind;
    use qce_strategy::PlanSource;

    let mut script = ServiceScript::new(
        "svc",
        vec![
            MsSpec {
                name: "mCheap".into(),
                capability: "cap-cheap".into(),
                prior: Qos::new(10.0, 10.0, 0.9).unwrap(),
            },
            MsSpec {
                name: "mFast".into(),
                capability: "cap-fast".into(),
                prior: Qos::new(200.0, 2.0, 0.9).unwrap(),
            },
        ],
        // Lenient: only the cheap microservice fits the cost budget.
        Requirements::new(50.0, 1000.0, 0.5).unwrap(),
    );
    script.slot_size = 1000; // boundaries driven by end_slot() only

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder().plan_cache(true).build();
    let gateway = Gateway::with_clock(
        market_with(script),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for (id, cap, cost, ms) in [
        ("dev/cheap", "cap-cheap", 10.0, 10u64),
        ("dev/fast", "cap-fast", 200.0, 2),
    ] {
        gateway.registry().register(
            SimulatedProvider::builder(id, cap)
                .cost(cost)
                .latency(Duration::from_millis(ms))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }

    // Slot 0 (default parallel) seeds observations for both providers;
    // slot 1 is the first real search under the lenient requirement.
    gateway.submit(Request::new("svc")).unwrap();
    gateway.end_slot("svc");
    let lenient = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(lenient.slot, 1);
    assert!(lenient.advisory.is_none());
    assert_eq!(
        lenient.latency,
        Duration::from_millis(10),
        "under the lenient requirement the cheap (slow) leg wins"
    );

    // Mid-slot override: the operator now demands 5 ms end-to-end and
    // tolerates the expensive provider. Then cross a slot boundary.
    let strict = Requirements::new(500.0, 5.0, 0.5).unwrap();
    gateway.control().set_requirement("svc", strict);
    gateway.end_slot("svc");
    let judged = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(judged.slot, 2);
    assert!(
        judged.advisory.is_none(),
        "the new plan must satisfy the overridden requirement, got {:?}",
        judged.advisory
    );
    assert_eq!(
        judged.latency,
        Duration::from_millis(2),
        "the re-plan must switch to the fast leg"
    );

    // And the re-plan must be cold: the cached winner was won under
    // the old requirement.
    let snapshot = gateway.telemetry().snapshot();
    let slot2_source = snapshot
        .recent_events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SlotReplanned {
                slot: 2, source, ..
            } => Some(*source),
            _ => None,
        })
        .next_back()
        .expect("slot 2 re-planned");
    assert_eq!(slot2_source, Some(PlanSource::Cold));
    let svc = snapshot.service("svc").unwrap();
    assert!(svc.plan_cache_stale >= 1, "old-requirement plans dropped");
}

#[test]
fn critical_class_applies_its_default_deadline() {
    use qce_runtime::clock::VirtualClock;

    let clock = Arc::new(VirtualClock::new());
    let gateway = Gateway::with_clock(
        market_with(seq_script()),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    // Leg `a` fails after 300 virtual ms — past Critical's 250 ms
    // default — so a Critical request prunes fail-over leg `b`, while
    // an Interactive request (no default deadline) fails over fine.
    for (cap, reliability, ms) in [("cap-a", 0.0, 300u64), ("cap-b", 1.0, 1)] {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev/{cap}"), cap)
                .cost(50.0)
                .latency(Duration::from_millis(ms))
                .reliability(reliability)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    let critical = gateway
        .submit(Request::new("svc").class(QosClass::Critical))
        .unwrap();
    assert!(!critical.success);
    assert_eq!(critical.pruned, Some(PruneReason::DeadlineExceeded));
    let detail = critical.prune_detail.expect("always present when pruned");
    assert_eq!(detail.class, QosClass::Critical);
    assert_eq!(detail.remaining, Some(Duration::ZERO));

    let interactive = gateway.submit(Request::new("svc")).unwrap();
    assert!(interactive.success, "no default deadline: fail-over runs");
    assert_eq!(interactive.pruned, None);

    assert!(gateway.telemetry().events().iter().any(|e| matches!(
        &e.kind,
        qce_runtime::telemetry::EventKind::DeadlineExceeded { service, class, .. }
            if service == "svc" && *class == QosClass::Critical
    )));
}

#[test]
fn telemetry_counts_requests_and_replans() {
    let gateway = Gateway::new(market_with(script(3)), GatewayConfig::default());
    register_devices(&gateway, 1.0);
    for _ in 0..7 {
        gateway.submit(Request::new("temp")).unwrap();
    }
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("temp").unwrap();
    assert_eq!(svc.invocations, 7);
    assert_eq!(svc.successes, 7);
    assert_eq!(svc.replans, 3, "slots 0, 1 and 2 were each planned once");
    assert_eq!(svc.latency_ms.count, 7);
    assert_eq!(
        snapshot.market.fetches, 1,
        "script fetched once, then cached"
    );
}

/// Bugfix regression: a request whose effective deadline is zero used
/// to enter the engine, reserve workers, and charge the cost of its
/// started leaves before the first prune check rejected it. It must be
/// rejected at admission — no queue slot, no invocation, no cost —
/// and counted as exactly one deadline-exceeded event.
#[test]
fn zero_deadline_is_rejected_before_admission_and_counted_once() {
    use qce_runtime::clock::VirtualClock;

    let clock = Arc::new(VirtualClock::new());
    let gateway = Gateway::with_clock(
        market_with(one_ms_script()),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    gateway.registry().register(
        SimulatedProvider::builder("dev/cap-a", "cap-a")
            .cost(50.0)
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    match gateway.submit(Request::new("svc").deadline(Duration::ZERO)) {
        Err(RuntimeError::DeadlineExceeded { service_id, class }) => {
            assert_eq!(service_id, "svc");
            assert_eq!(class, QosClass::Interactive);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.deadline_exceeded, 1, "counted exactly once");
    assert_eq!(svc.invocations, 0, "never entered the engine");
    assert_eq!(clock.now(), Duration::ZERO, "no virtual time consumed");

    // The same applies to a dead-on-arrival deadline set through the
    // control plane rather than the request.
    gateway.control().set_deadline("svc", Some(Duration::ZERO));
    assert!(matches!(
        gateway.submit(Request::new("svc")),
        Err(RuntimeError::DeadlineExceeded { .. })
    ));
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.service("svc").unwrap().deadline_exceeded, 2);
    assert_eq!(snapshot.service("svc").unwrap().invocations, 0);

    // An explicit (positive) request deadline outranks the override
    // and the request executes normally.
    let response = gateway
        .submit(Request::new("svc").deadline(Duration::from_millis(100)))
        .unwrap();
    assert!(response.success);
}

/// Bugfix regression: anchoring a `Duration::MAX` deadline at "now" used
/// to overflow and panic both entry points as soon as the clock had
/// moved. A saturated absolute deadline means "never": from every source
/// a deadline resolves from, and through both entry points, the request
/// runs to success unpruned.
#[test]
fn maximal_deadline_never_trips_from_any_source_or_entry_point() {
    use qce_runtime::clock::VirtualClock;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for source in ["request", "config", "override"] {
        for blocking in [true, false] {
            let ctx = format!("{source} deadline, blocking {blocking}");
            let clock = Arc::new(VirtualClock::new());
            clock.advance(Duration::from_millis(5));
            let config = GatewayConfig::builder()
                .request_deadline((source == "config").then_some(Duration::MAX))
                .build();
            let gateway = Arc::new(Gateway::with_clock(
                market_with(one_ms_script()),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
            ));
            gateway.registry().register(
                SimulatedProvider::builder("dev/cap-a", "cap-a")
                    .latency(Duration::from_millis(1))
                    .reliability(1.0)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
            let mut request = Request::new("svc");
            match source {
                "request" => request = request.deadline(Duration::MAX),
                "override" => gateway.control().set_deadline("svc", Some(Duration::MAX)),
                _ => {}
            }
            let served = catch_unwind(AssertUnwindSafe(|| {
                if blocking {
                    gateway.submit(request)
                } else {
                    gateway
                        .submit_async(request)
                        .and_then(|handle| handle.wait())
                }
            }));
            let response = served
                .unwrap_or_else(|_| panic!("{ctx}: panicked"))
                .unwrap_or_else(|error| panic!("{ctx}: {error}"));
            assert!(response.success, "{ctx}");
            assert_eq!(response.pruned, None, "{ctx}");
        }
    }
}

/// A leaf that must really block (here a closure provider) runs on the
/// gateway's worker pool, one pool job per leg, and the response is what
/// `execute_scoped` reports for the same providers and strategy.
#[test]
fn blocking_legs_run_on_the_gateway_pool() {
    use qce_runtime::engine::{execute_scoped, Budget, CompletionPolicy};
    use qce_runtime::{FnProvider, Invocation, InvokeError, Provider, WallClock};
    use qce_strategy::Strategy;

    let providers: Vec<Arc<dyn Provider>> = vec![
        FnProvider::new("dev/a", "cap-a", 4.0, |_| {
            Err(InvokeError::ExecutionFailed {
                reason: "down".to_string(),
            })
        }),
        FnProvider::new("dev/b", "cap-b", 2.0, |_| Ok(vec![7])),
        FnProvider::new("dev/c", "cap-c", 1.0, |_| Ok(vec![7])),
    ];
    let mut script = ServiceScript::new(
        "svc",
        ["a", "b", "c"]
            .iter()
            .map(|name| MsSpec {
                name: (*name).into(),
                capability: format!("cap-{name}"),
                prior: Qos::new(5.0, 5.0, 0.9).unwrap(),
            })
            .collect(),
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    );
    script.default_strategy = Some("a-b*c".to_string());
    let gateway = Gateway::new(market_with(script), GatewayConfig::default());
    for provider in &providers {
        gateway.registry().register(Arc::clone(provider));
    }

    // `a` fails, then `b` and `c` start together: three blocking legs.
    let before = gateway.pool_stats().submitted;
    let response = gateway.submit(Request::new("svc")).unwrap();
    assert_eq!(gateway.pool_stats().submitted - before, 3);

    let scoped = execute_scoped(
        &Strategy::parse("a-b*c").unwrap(),
        &providers,
        &Invocation::new(1, "svc", vec![]),
        None,
        &WallClock::new(),
        None,
        &Budget::unlimited(),
        CompletionPolicy::FirstSuccess,
    )
    .unwrap();
    assert_eq!(response.success, scoped.completion.is_success());
    assert_eq!(response.payload.as_ref(), scoped.completion.payload());
    assert_eq!(response.cost.to_bits(), scoped.cost.to_bits());
    assert_eq!(response.cost, 7.0, "every started leg is charged");
    assert_eq!(scoped.invocations.len(), 3);
}

/// An asynchronous submission is the same request as a blocking one:
/// same planning, same execution, same telemetry — bit-identical
/// response. This is the contract the shared request pipeline leans on,
/// so it is held over every input the two entry points resolve
/// differently from a bare request: each class, an explicit deadline, a
/// quorum script, a live requirement override, and an unreachable
/// requirement (advisory present).
#[test]
fn submit_async_matches_blocking_submit_bit_for_bit() {
    use qce_runtime::clock::VirtualClock;
    use qce_runtime::ServiceSnapshot;

    struct Case {
        name: String,
        script: ServiceScript,
        request: Request,
        override_requirement: Option<Requirements>,
        expect_advisory: bool,
    }
    let case = |name: &str, script: ServiceScript, request: Request| Case {
        name: name.to_string(),
        script,
        request,
        override_requirement: None,
        expect_advisory: false,
    };

    let mut cases = Vec::new();
    for class in QosClass::ALL {
        let request = Request::new("temp").class(class);
        cases.push(case(&format!("{class}"), script(1), request.clone()));
        cases.push(case(
            &format!("{class} with a deadline"),
            script(1),
            request.deadline(Duration::from_secs(1)),
        ));
    }
    cases.push(case(
        "default class, 10-request slot",
        script(10),
        Request::new("temp"),
    ));
    let mut quorum = script(1);
    quorum.quorum = Some(2);
    cases.push(case("quorum script", quorum, Request::new("temp")));
    cases.push(Case {
        override_requirement: Some(Requirements::new(500.0, 500.0, 0.5).unwrap()),
        ..case("live requirement override", script(1), Request::new("temp"))
    });
    let mut unreachable = script(1);
    unreachable.requirements = Requirements::new(10.0, 1.0, 0.999).unwrap();
    cases.push(Case {
        expect_advisory: true,
        ..case("unreachable requirement", unreachable, Request::new("temp"))
    });

    // Three requests per run: slot 0 serves the default strategy, the
    // override (if any) lands mid-run, and the later slots serve plans
    // generated from what the earlier requests observed.
    let run = |case: &Case, blocking: bool| -> (Vec<ServiceResponse>, ServiceSnapshot) {
        let clock = Arc::new(VirtualClock::new());
        let gateway = Arc::new(Gateway::with_clock(
            market_with(case.script.clone()),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        for (i, (cap, ms)) in [("read-temp", 2u64), ("est-temp", 3), ("loc-temp", 5)]
            .iter()
            .enumerate()
        {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev{i}/{cap}"), *cap)
                    .cost(50.0)
                    .latency(Duration::from_millis(*ms))
                    .reliability(0.9)
                    .seed(i as u64)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
        let mut responses = Vec::new();
        for i in 0..3 {
            if let (1, Some(requirement)) = (i, case.override_requirement) {
                gateway.control().set_requirement("temp", requirement);
            }
            let request = case.request.clone();
            let response = if blocking {
                gateway.submit(request).unwrap()
            } else {
                gateway.submit_async(request).unwrap().wait().unwrap()
            };
            // Ids are per gateway, not part of the contract.
            responses.push(ServiceResponse {
                request_id: 0,
                ..response
            });
        }
        let mut counters = gateway
            .telemetry()
            .snapshot()
            .service("temp")
            .unwrap()
            .clone();
        counters.synthesis_elapsed = Duration::ZERO; // wall-clock search effort
        (responses, counters)
    };
    for case in &cases {
        let (blocking, blocking_counters) = run(case, true);
        let (asynchronous, async_counters) = run(case, false);
        assert_eq!(blocking, asynchronous, "responses differ: {}", case.name);
        assert_eq!(
            blocking_counters, async_counters,
            "telemetry counters differ: {}",
            case.name
        );
        assert!(
            !case.expect_advisory || blocking.iter().any(|r| r.advisory.is_some()),
            "no advisory: {}",
            case.name
        );
    }
}

/// A queued asynchronous request whose deadline expires before a slot
/// frees up fails with `DeadlineExceeded` without ever executing —
/// and is counted exactly once even though both the queue-deadline
/// timer and the continuation's own expiry check could observe it.
#[test]
fn queued_async_request_expires_without_executing() {
    use qce_runtime::clock::{VirtualClock, WorkerGuard};

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(4)
        .build();
    let gateway = Arc::new(Gateway::with_clock(
        market_with(one_ms_script()),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev/cap-a", "cap-a")
            .cost(50.0)
            .latency(Duration::from_millis(10))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    let (first, second) = {
        // Pin virtual time while both submissions land, so the second
        // is deterministically queued behind the first.
        let _pin = WorkerGuard::enter(&*clock);
        let first = gateway.submit_async(Request::new("svc")).unwrap();
        let second = gateway
            .submit_async(Request::new("svc").deadline(Duration::from_millis(2)))
            .unwrap();
        (first, second)
    };
    match second.wait() {
        Err(RuntimeError::DeadlineExceeded { service_id, class }) => {
            assert_eq!(service_id, "svc");
            assert_eq!(class, QosClass::Interactive);
        }
        other => panic!("expected queue-deadline expiry, got {other:?}"),
    }
    let first = first.wait().unwrap();
    assert!(first.success);
    assert_eq!(first.latency, Duration::from_millis(10));
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.deadline_exceeded, 1, "counted exactly once");
    assert_eq!(svc.invocations, 1, "the expired request never executed");
    assert_eq!(svc.latency_ms.count, 1, "only the first became a request");
}

/// A queued request's queue-deadline cancel wakes the event loop only when
/// it becomes the loop's earliest timer. Here it lands behind another
/// service's pending 3 ms leg, so scheduling it wakes nobody; the loop
/// still runs it at 5 ms, on its way to the leg at 10 ms that holds the
/// only slot, and the request fails with `DeadlineExceeded` once, never
/// executed.
#[test]
fn a_later_queue_deadline_expires_without_waking_the_loop() {
    use qce_runtime::clock::{VirtualClock, WorkerGuard};
    use qce_runtime::telemetry::EventKind;

    let ms = Duration::from_millis;
    let clock = Arc::new(VirtualClock::new());
    let market = InMemoryMarket::new();
    market.publish(one_ms_script()).unwrap();
    let mut other = one_ms_script();
    other.service_id = "other".into();
    other.microservices[0].capability = "cap-b".into();
    market.publish(other).unwrap();
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(4)
        .build();
    let gateway = Arc::new(Gateway::with_clock(
        Box::new(market),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    for (cap, latency) in [("cap-a", ms(10)), ("cap-b", ms(3))] {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev/{cap}"), cap)
                .cost(50.0)
                .latency(latency)
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    let (other, first, queued, wakeups) = {
        let _pin = WorkerGuard::enter(&*clock);
        let other = gateway.submit_async(Request::new("other")).unwrap();
        let first = gateway.submit_async(Request::new("svc")).unwrap();
        // Both legs are on the loop's timers: 3 ms and 10 ms.
        while gateway.engine_stats().in_flight < 2 {
            std::thread::yield_now();
        }
        let wakeups = gateway.engine_stats().wakeups;
        let queued = gateway
            .submit_async(Request::new("svc").deadline(ms(5)))
            .unwrap();
        assert_eq!(
            gateway.engine_stats().wakeups,
            wakeups,
            "a 5 ms cancel behind a 3 ms leg wakes nobody"
        );
        (other, first, queued, wakeups)
    };
    match queued.wait() {
        Err(RuntimeError::DeadlineExceeded { service_id, class }) => {
            assert_eq!(service_id, "svc");
            assert_eq!(class, QosClass::Interactive);
        }
        other => panic!("expected queue-deadline expiry, got {other:?}"),
    }
    assert_eq!(other.wait().unwrap().latency, ms(3));
    assert_eq!(first.wait().unwrap().latency, ms(10));
    assert!(
        gateway.engine_stats().wakeups > wakeups,
        "time jumps woke it"
    );
    let expired: Vec<_> = gateway
        .telemetry()
        .events()
        .into_iter()
        .filter(
            |e| matches!(&e.kind, EventKind::DeadlineExceeded { service, .. } if service == "svc"),
        )
        .map(|e| e.at)
        .collect();
    assert_eq!(expired, [ms(5)], "one expiry, stamped at its deadline");
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.deadline_exceeded, 1, "counted exactly once");
    assert_eq!(svc.invocations, 1, "the expired request never executed");
}

/// The preemption contract carries over to asynchronous waiters: a
/// queued async Scavenger preempted by a Critical arrival resolves its
/// handle with `Overloaded` and is counted as shed.
#[test]
fn critical_arrival_preempts_a_queued_async_scavenger() {
    use qce_runtime::clock::{VirtualClock, WorkerGuard};

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(1)
        .build();
    let gateway = Arc::new(Gateway::with_clock(
        market_with(one_ms_script()),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev/cap-a", "cap-a")
            .cost(50.0)
            .latency(Duration::from_millis(5))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    let (running, scavenger, critical) = {
        let _pin = WorkerGuard::enter(&*clock);
        let running = gateway.submit_async(Request::new("svc")).unwrap();
        let scavenger = gateway
            .submit_async(Request::new("svc").class(QosClass::Scavenger))
            .unwrap();
        let critical = gateway
            .submit_async(Request::new("svc").class(QosClass::Critical))
            .unwrap();
        (running, scavenger, critical)
    };
    match scavenger.wait() {
        Err(RuntimeError::Overloaded {
            service_id, class, ..
        }) => {
            assert_eq!(service_id, "svc");
            assert_eq!(class, QosClass::Scavenger, "the waiter was preempted");
        }
        other => panic!("scavenger should have been shed, got {other:?}"),
    }
    assert!(running.wait().unwrap().success);
    let critical = critical.wait().unwrap();
    assert!(critical.success);
    assert_eq!(critical.class, QosClass::Critical);
    let snapshot = gateway.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.requests_shed, 1);
    assert_eq!(svc.class(QosClass::Scavenger).unwrap().shed, 1);
    assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 1);
}

/// Bugfix regression: dropping the gateway with requests in flight
/// used to panic the engine (`pool.upgrade().expect("engine outlives
/// its walk")`). Now every pending handle resolves with
/// [`RuntimeError::Shutdown`] — in-flight requests via the core's
/// shutdown sweep, queued admissions via their drained wakers — and
/// nothing parks forever.
#[test]
fn dropping_the_gateway_resolves_in_flight_and_queued_handles() {
    use qce_runtime::clock::{VirtualClock, WorkerGuard};

    let clock = Arc::new(VirtualClock::new());
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(4)
        .build();
    let gateway = Arc::new(Gateway::with_clock(
        market_with(one_ms_script()),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev/cap-a", "cap-a")
            .cost(50.0)
            .latency(Duration::from_millis(5))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    // Pin virtual time for the gateway's whole lifetime: the leaf's
    // completion event can never fire, so the first request is
    // mid-flight and the second still queued when the gateway drops.
    let _pin = WorkerGuard::enter(&*clock);
    let in_flight = gateway.submit_async(Request::new("svc")).unwrap();
    let queued = gateway.submit_async(Request::new("svc")).unwrap();
    while gateway.engine_stats().in_flight < 1 {
        std::thread::yield_now();
    }
    drop(gateway);
    assert!(matches!(in_flight.wait(), Err(RuntimeError::Shutdown)));
    assert!(matches!(queued.wait(), Err(RuntimeError::Shutdown)));
}
