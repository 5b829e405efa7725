//! Integration tests for the gateway telemetry layer and the slot-planning
//! concurrency fixes: exact-count accounting over a multi-slot virtual-time
//! run, a golden snapshot of every counter such a run leaves behind, and
//! regression tests showing one service's slow script fetch or slot
//! re-plan no longer blocks other services.

use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use qce_runtime::engine::{execute_scoped, Budget, CompletionPolicy};
use qce_runtime::{
    Clock, EventKind, FaultEvent, FaultKind, FaultPlan, Gateway, GatewayConfig, Harness,
    InMemoryMarket, Invocation, Market, MsSpec, Provider, QosClass, Request, RuntimeError,
    ServiceScript, SimulatedProvider, StrategyOrigin, WorkerGuard,
};
use qce_strategy::{Qos, Requirements, Strategy};

fn spec(name: &str, capability: &str, latency: f64) -> MsSpec {
    MsSpec {
        name: name.into(),
        capability: capability.into(),
        prior: Qos::new(50.0, latency, 0.7).unwrap(),
    }
}

fn three_ms_script(service_id: &str, slot_size: u32) -> ServiceScript {
    let mut script = ServiceScript::new(
        service_id,
        vec![
            spec("m0", "c0", 5.0),
            spec("m1", "c1", 8.0),
            spec("m2", "c2", 12.0),
        ],
        Requirements::new(200.0, 100.0, 0.5).unwrap(),
    );
    script.slot_size = slot_size;
    script
}

fn three_devices() -> Vec<(&'static str, &'static str, u64)> {
    vec![("d0/c0", "c0", 2), ("d1/c1", "c1", 3), ("d2/c2", "c2", 5)]
}

fn harness(script: ServiceScript) -> Harness {
    let mut builder = Harness::builder().script(script);
    for (id, cap, ms) in three_devices() {
        builder = builder.provider(
            SimulatedProvider::builder(id, cap)
                .latency(Duration::from_millis(ms))
                .reliability(1.0)
                .cost(50.0),
        );
    }
    builder.build()
}

/// The acceptance scenario: a deterministic multi-slot virtual-time run
/// whose telemetry must agree exactly with the gateway's `slot_history`
/// and with the device-side ground-truth counters.
#[test]
fn snapshot_matches_slot_history_exactly() {
    let h = harness(three_ms_script("svc", 4));
    for _ in 0..12 {
        assert!(h.invoke("svc").unwrap().success);
    }

    let snapshot = h.telemetry().snapshot();
    let svc = snapshot.service("svc").expect("service was invoked");
    assert_eq!(svc.invocations, 12);
    assert_eq!(svc.successes, 12);
    assert_eq!(svc.replans, 3, "slots 0, 1 and 2 each planned once");
    assert_eq!(svc.plan_failures, 0);
    assert_eq!(svc.latency_ms.count, 12);
    assert_eq!(svc.cost.count, 12);

    // Every SlotReplanned event lines up, in order, with a slot_history
    // record: same slot, same strategy text, and the generator's
    // SynthesisReport numbers only for searched (non-default) slots.
    let history = h.gateway().slot_history("svc");
    assert_eq!(history.len(), 3);
    let events = h.telemetry().events();
    let replans: Vec<(u64, String, u64)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SlotReplanned {
                service,
                slot,
                strategy,
                candidates_seen,
                ..
            } if service == "svc" => Some((*slot, strategy.clone(), *candidates_seen)),
            _ => None,
        })
        .collect();
    assert_eq!(replans.len(), history.len());
    for (record, (slot, strategy, seen)) in history.iter().zip(&replans) {
        assert_eq!(record.slot, *slot);
        assert_eq!(record.strategy_text, *strategy);
        if matches!(record.origin, StrategyOrigin::Default) {
            assert_eq!(*seen, 0, "the default strategy is not searched");
        } else {
            assert!(*seen > 0, "generated slots report search effort");
        }
    }

    // Strategy-switch events reproduce exactly the transitions visible in
    // the history.
    let expected_switches: Vec<(String, String)> = history
        .windows(2)
        .filter(|w| w[0].strategy_text != w[1].strategy_text)
        .map(|w| (w[0].strategy_text.clone(), w[1].strategy_text.clone()))
        .collect();
    assert!(
        !expected_switches.is_empty(),
        "slot 1 must abandon the parallel default"
    );
    let switches: Vec<(String, String)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StrategySwitched {
                service, from, to, ..
            } if service == "svc" => Some((from.clone(), to.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(switches, expected_switches);
    assert_eq!(svc.strategy_switches as usize, expected_switches.len());

    // Event timestamps come from the shared virtual clock and never go
    // backwards.
    assert!(events
        .windows(2)
        .all(|w| w[0].at <= w[1].at && w[0].seq < w[1].seq));

    // Per-provider telemetry equals the device-side ground truth.
    for (id, _, _) in three_devices() {
        let device = h.provider(id).invocations();
        let counted = snapshot.provider(id).map_or(0, |p| p.invocations);
        assert_eq!(counted, device, "telemetry vs device counter for {id}");
    }
    // Slot 0's parallel default hit every device once per invocation.
    assert!(snapshot.provider("d0/c0").unwrap().invocations >= 4);
    assert_eq!(
        snapshot.market.fetches, 1,
        "script fetched once, then cached"
    );
}

#[test]
fn quorum_votes_flow_into_telemetry() {
    let mut script = three_ms_script("svc", 4);
    script.quorum = Some(2);
    let h = harness(script);
    let response = h.invoke("svc").unwrap();
    let (agreed, cast) = response.votes.expect("quorum execution reports votes");
    let snapshot = h.telemetry().snapshot();
    let svc = snapshot.service("svc").unwrap();
    assert_eq!(svc.quorum_votes_agreed, agreed as u64);
    assert_eq!(svc.quorum_votes_cast, cast as u64);
}

/// Compares `actual` with the golden file `name` under `tests/golden/`.
/// On a mismatch the actual text is written next to the test binaries, so
/// a deliberate change can be reviewed with `diff` and copied over.
fn assert_golden(name: &str, expected: &str, actual: &str) {
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, actual).unwrap();
        panic!(
            "{name} differs from tests/golden/{name}; the actual text is in {}",
            path.display()
        );
    }
}

/// The snapshot is the contract: one virtual-clock run that touches every
/// kind of record — blocking and asynchronous requests on two services,
/// Critical requests that meet and miss their deadline, a shed on a
/// bounded gate, fault-window hits, a provider leaving and re-joining
/// between slots, an eviction, and a gateway-free `execute_scoped` — must
/// leave exactly the telemetry snapshot and collector windows in
/// `tests/golden/`, wall-clock fields zeroed. Providers a plan resolved
/// but no leg ever invoked stay out of both.
#[test]
fn golden_snapshot_of_a_run_touching_every_record() {
    let ms = Duration::from_millis;
    let script = |id: &str, specs: &[(&str, &str)], slot_size: u32, default: Option<&str>| {
        let specs = specs
            .iter()
            .map(|&(name, cap)| spec(name, cap, 5.0))
            .collect();
        let mut script =
            ServiceScript::new(id, specs, Requirements::new(200.0, 100.0, 0.5).unwrap());
        script.slot_size = slot_size;
        script.default_strategy = default.map(str::to_string);
        script
    };
    let device = |id: &str, cap: &str, latency: Duration, reliability: f64, cost: f64| {
        SimulatedProvider::builder(id, cap)
            .latency(latency)
            .reliability(reliability)
            .cost(cost)
            .response(vec![b'r'])
    };
    let config = GatewayConfig::builder()
        .plan_cache(true)
        .max_in_flight(2)
        .admission_queue(0)
        .build();
    let crash = FaultPlan::new(vec![
        FaultEvent {
            at: ms(10),
            kind: FaultKind::Crash,
        },
        FaultEvent {
            at: Duration::from_secs(10),
            kind: FaultKind::Recover,
        },
    ]);
    let h = Harness::builder()
        .config(config)
        .script(script(
            "alpha",
            &[("m0", "c0"), ("m1", "c1"), ("m2", "c3")],
            3,
            None,
        ))
        .script(script(
            "beta",
            &[("lead", "c2"), ("back", "c1")],
            1_000,
            Some("lead-back"),
        ))
        .script(script(
            "gamma",
            &[("solid", "c0"), ("spare", "c4")],
            1_000,
            Some("solid-spare"),
        ))
        .provider(device("d0/c0", "c0", ms(2), 1.0, 50.0))
        .provider(device("d1/c1", "c1", ms(3), 1.0, 40.0))
        .provider(device("d2/c2", "c2", ms(5), 0.0, 30.0))
        .faulty(device("f3/c3", "c3", ms(1), 1.0, 20.0), crash)
        .provider(device("s4/c4", "c4", ms(4), 1.0, 10.0))
        .build();
    let gateway = h.gateway();
    let clock: Arc<dyn Clock> = Arc::clone(h.clock()) as Arc<dyn Clock>;

    // Slot 0 of alpha (the parallel default) and beta's fail-over default.
    for _ in 0..2 {
        assert!(h.invoke("alpha").unwrap().success);
    }
    for _ in 0..2 {
        assert!(h.invoke("beta").unwrap().success);
    }
    // `spare` is resolved into gamma's plan, but `solid` never fails.
    assert!(h.invoke("gamma").unwrap().success);
    assert_eq!(
        gateway.current_strategy("gamma").as_deref(),
        Some("solid-spare")
    );
    // Past 10 ms: alpha's `m2` leg lands in f3's crash window. Critical
    // carries a 250 ms default deadline, met here.
    let critical = h.submit(Request::new("alpha").class(QosClass::Critical));
    assert!(critical.unwrap().pruned.is_none());

    // A provider leaves and re-joins between alpha's slots.
    assert!(gateway.provider_left("d1/c1"));
    gateway.provider_joined(Arc::clone(h.provider("d1/c1")) as Arc<dyn Provider>);
    for _ in 0..2 {
        let handle = gateway.submit_async(Request::new("alpha")).unwrap();
        assert_eq!(handle.wait().unwrap().slot, 1);
    }

    // beta's `lead` fails after 5 ms, past a 1 ms deadline: `back` is
    // pruned.
    let missed = h
        .submit(
            Request::new("beta")
                .class(QosClass::Critical)
                .deadline_ms(1),
        )
        .unwrap();
    assert!(!missed.success);
    assert!(missed.pruned.is_some());

    // A shed: with this thread registered and running, virtual time holds
    // still, so beta's two admitted requests stay in flight and fill its
    // gate when the third arrives.
    {
        let _pinned = WorkerGuard::enter(&*clock);
        let admitted: Vec<_> = (0..2)
            .map(|_| gateway.submit_async(Request::new("beta")).unwrap())
            .collect();
        assert!(matches!(
            gateway.submit_async(Request::new("beta")),
            Err(RuntimeError::Overloaded { .. })
        ));
        for handle in admitted {
            assert!(handle.wait().unwrap().success);
        }
    }

    // The gateway-free door, recording into the gateway's own collector
    // and telemetry; `x5/c5` is resolved but never invoked.
    let spare: Arc<dyn Provider> = device("x5/c5", "c5", ms(1), 1.0, 5.0)
        .clock(Arc::clone(&clock))
        .build();
    let providers = [Arc::clone(h.provider("d0/c0")) as Arc<dyn Provider>, spare];
    let outcome = execute_scoped(
        &Strategy::parse("a-b").unwrap(),
        &providers,
        &Invocation::new(0, "scoped", vec![]),
        Some(gateway.collector()),
        &*clock,
        Some(gateway.telemetry()),
        &Budget::unlimited(),
        CompletionPolicy::FirstSuccess,
    )
    .unwrap();
    assert!(outcome.completion.is_success());

    // An eviction drops beta's plans and entry; the next request fetches
    // its script again.
    gateway.evict_service("beta");
    assert!(h.invoke("beta").unwrap().success);

    let mut snapshot = h.telemetry().snapshot();
    for service in &mut snapshot.services {
        service.synthesis_elapsed = Duration::ZERO;
    }
    for event in &mut snapshot.recent_events {
        if let EventKind::SlotReplanned { elapsed, .. } = &mut event.kind {
            *elapsed = Duration::ZERO;
        }
    }
    snapshot.market.fetch_elapsed = Duration::ZERO;
    for never_invoked in ["s4/c4", "x5/c5"] {
        assert!(
            snapshot.provider(never_invoked).is_none(),
            "{never_invoked}"
        );
        assert!(gateway.collector().stats(never_invoked).is_none());
    }
    assert_golden(
        "telemetry_snapshot.json",
        include_str!("golden/telemetry_snapshot.json"),
        &serde_json::to_string_pretty(&snapshot).unwrap(),
    );

    let collector = gateway.collector();
    let windows: Vec<_> = ["d0/c0", "d1/c1", "d2/c2", "f3/c3", "s4/c4", "x5/c5"]
        .into_iter()
        .map(|id| (id, (collector.observation_count(id), collector.stats(id))))
        .collect();
    let collected = (collector.provider_ids(), windows);
    assert_golden(
        "collector_stats.json",
        include_str!("golden/collector_stats.json"),
        &serde_json::to_string_pretty(&collected).unwrap(),
    );
}

/// A two-phase turnstile: the blocked side parks in `enter` until the test
/// calls `release`; the test waits in `wait_entered` until the blocked side
/// has actually arrived.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (entered, released)
    cv: Condvar,
}

impl Gate {
    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_entered(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A market whose fetch of one service blocks on a [`Gate`] — a stand-in
/// for a slow cloud round-trip.
struct GateMarket {
    inner: InMemoryMarket,
    slow_service: String,
    gate: Arc<Gate>,
}

impl Market for GateMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        if service_id == self.slow_service {
            self.gate.enter();
        }
        self.inner.fetch(service_id)
    }

    fn service_ids(&self) -> Vec<String> {
        self.inner.service_ids()
    }
}

/// Runs `invoke(service_id)` on its own thread and asserts it completes
/// within a generous timeout — i.e. it was not serialized behind another
/// service's in-flight work.
fn assert_invoke_completes(gateway: &Arc<Gateway>, service_id: &str) {
    let (done_tx, done_rx) = mpsc::channel();
    let gateway = Arc::clone(gateway);
    let service_id = service_id.to_string();
    thread::spawn(move || {
        let response = gateway.submit(Request::new(&service_id));
        done_tx.send(response).unwrap();
    });
    let response = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the other service must proceed, not queue behind the blocked one");
    assert!(response.unwrap().success);
}

/// Regression (head-of-line blocking): while service A's script fetch is
/// stuck on a slow market, service B must still be served. Before the
/// per-service state cells, the fetch ran under the one global service
/// map lock and this test deadlocked.
#[test]
fn service_b_is_served_while_service_a_fetch_blocks() {
    let inner = InMemoryMarket::new();
    inner.publish(three_ms_script("slow", 4)).unwrap();
    inner.publish(three_ms_script("fast", 4)).unwrap();
    let gate = Arc::new(Gate::default());
    let market = GateMarket {
        inner,
        slow_service: "slow".into(),
        gate: Arc::clone(&gate),
    };
    let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));
    for (id, cap, _) in three_devices() {
        gateway.registry().register(
            SimulatedProvider::builder(id, cap)
                .reliability(1.0)
                .cost(50.0)
                .build(),
        );
    }

    let blocked = {
        let gateway = Arc::clone(&gateway);
        thread::spawn(move || gateway.submit(Request::new("slow")))
    };
    gate.wait_entered();

    assert_invoke_completes(&gateway, "fast");

    gate.release();
    assert!(blocked.join().unwrap().unwrap().success);
}

/// Regression (head-of-line blocking): while service A is re-planning at a
/// slot boundary, service B must still be served. The telemetry sink fires
/// inside A's per-service critical section, so parking there holds exactly
/// the lock the old code shared across all services.
#[test]
fn service_b_is_served_during_service_a_replan() {
    let market = InMemoryMarket::new();
    market.publish(three_ms_script("a", 1)).unwrap();
    market.publish(three_ms_script("b", 4)).unwrap();
    let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));
    for (id, cap, _) in three_devices() {
        gateway.registry().register(
            SimulatedProvider::builder(id, cap)
                .reliability(1.0)
                .cost(50.0)
                .build(),
        );
    }

    let gate = Arc::new(Gate::default());
    let sink_gate = Arc::clone(&gate);
    gateway.telemetry().set_sink(move |event| {
        if let EventKind::SlotReplanned { service, slot, .. } = &event.kind {
            if service == "a" && *slot == 1 {
                sink_gate.enter();
            }
        }
    });

    assert!(gateway.submit(Request::new("a")).unwrap().success); // slot 0 planned
    let blocked = {
        let gateway = Arc::clone(&gateway);
        // slot_size is 1, so this invocation re-plans (slot 1) and parks in
        // the sink while holding service A's state lock.
        thread::spawn(move || gateway.submit(Request::new("a")))
    };
    gate.wait_entered();

    assert_invoke_completes(&gateway, "b");

    gate.release();
    let response = blocked.join().unwrap().unwrap();
    assert_eq!(response.slot, 1);
    gateway.telemetry().clear_sink();
}

/// The `--trace` building block: a sink sees every event exactly once, in
/// order, even events that overflow the bounded ring.
#[test]
fn sink_streams_every_event_in_order() {
    // The ring holds the newest 1 024 events; enough requests overflow it.
    let config = GatewayConfig::default();
    let market = InMemoryMarket::new();
    market.publish(three_ms_script("svc", 1)).unwrap();
    let clock = Arc::new(qce_runtime::VirtualClock::new());
    let gateway = Arc::new(Gateway::with_clock(
        Box::new(market),
        config,
        Arc::clone(&clock) as Arc<dyn qce_runtime::Clock>,
    ));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    gateway.telemetry().set_sink(move |event| {
        sink_seen.lock().unwrap().push(event.seq);
    });
    for (id, cap, ms) in three_devices() {
        gateway.registry().register(
            SimulatedProvider::builder(id, cap)
                .latency(Duration::from_millis(ms))
                .reliability(1.0)
                .cost(50.0)
                .clock(Arc::clone(&clock) as Arc<dyn qce_runtime::Clock>)
                .build(),
        );
    }
    for _ in 0..1100 {
        gateway.submit(Request::new("svc")).unwrap();
    }
    let seen = seen.lock().unwrap();
    let expected: Vec<u64> = (0..seen.len() as u64).collect();
    assert_eq!(*seen, expected, "gapless, ordered event stream");
    let snapshot = gateway.telemetry().snapshot();
    assert_eq!(snapshot.events.emitted, seen.len() as u64);
    assert!(seen.len() > 1024, "{} events overflow the ring", seen.len());
    assert_eq!(snapshot.events.dropped, seen.len() as u64 - 1024);
    assert_eq!(snapshot.recent_events.len(), 1024);
}
