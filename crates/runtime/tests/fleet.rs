//! Integration tests for the sharded gateway fleet: consistent-hash
//! routing end to end, per-service plan caches (exact invalidation, what
//! a membership change costs), provider replay onto joining shards, and
//! clean eviction with work in flight.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use qce_runtime::fleet::{FleetConfig, GatewayFleet, GatewayShard};
use qce_runtime::{
    Clock, FnProvider, GatewayConfig, InMemoryMarket, Market, MsSpec, Request, RuntimeError,
    ServiceScript, SimulatedProvider, VirtualClock,
};
use qce_strategy::{PlanSource, Qos, Requirements};

/// A service over `arms` equivalent microservices with shared capability
/// names (`cap0`, `cap1`, …), so every service resolves to the same
/// fleet-registered providers.
fn script(service: &str, arms: usize) -> ServiceScript {
    ServiceScript::new(
        service,
        (0..arms)
            .map(|i| MsSpec {
                name: format!("m{i}"),
                capability: format!("cap{i}"),
                prior: Qos::new(50.0, 2.0 + i as f64, 0.9).unwrap(),
            })
            .collect(),
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    )
}

fn backend(services: &[&str], arms: usize) -> Arc<dyn Market> {
    let market = InMemoryMarket::new();
    for service in services {
        market.publish(script(service, arms)).unwrap();
    }
    Arc::new(market)
}

fn fleet_with(
    services: &[&str],
    arms: usize,
    config: FleetConfig,
) -> (Arc<VirtualClock>, GatewayFleet) {
    let clock = Arc::new(VirtualClock::new());
    let fleet = GatewayFleet::with_clock(
        backend(services, arms),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    for i in 0..arms {
        fleet.register(
            SimulatedProvider::builder(format!("dev{i}"), format!("cap{i}"))
                .cost(10.0)
                .latency(Duration::from_millis(1 + i as u64))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    (clock, fleet)
}

#[test]
fn fleet_routes_stably_and_serves_every_service() {
    let services: Vec<String> = (0..12).map(|i| format!("svc-{i}")).collect();
    let names: Vec<&str> = services.iter().map(String::as_str).collect();
    let (_clock, fleet) = fleet_with(&names, 2, FleetConfig::default());
    assert_eq!(fleet.shard_ids(), vec![0, 1, 2, 3]);

    let owners: Vec<u32> = names.iter().map(|s| fleet.route(s).unwrap()).collect();
    for (service, &owner) in names.iter().zip(&owners) {
        let response = fleet.submit(Request::new(*service)).unwrap();
        assert!(response.success);
        // The responding shard is the routed one: its engine served the
        // request, so its market front fetched the script.
        assert_eq!(fleet.route(service), Some(owner));
    }
    // With 12 services over 4 shards and 64 vnodes, more than one shard
    // ends up owning something.
    let mut distinct = owners.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() > 1, "all services landed on one shard");

    // Each script was fetched exactly once, through the owning shard's
    // TTL front (misses), and never twice (no hits needed yet).
    let stats = fleet.stats();
    assert_eq!(stats.market.misses, 12);
    assert_eq!(stats.market.expired, 0);
    assert_eq!(stats.shards, 4);
}

/// `(source, strategy)` of every re-plan of `service` on `shard`, oldest
/// first.
fn replans(shard: &GatewayShard, service: &str) -> Vec<(Option<PlanSource>, String)> {
    let snapshot = shard.gateway().telemetry().snapshot();
    snapshot
        .recent_events
        .iter()
        .filter_map(|event| match &event.kind {
            qce_runtime::EventKind::SlotReplanned {
                service: replanned,
                source,
                strategy,
                ..
            } if replanned == service => Some((*source, strategy.clone())),
            _ => None,
        })
        .collect()
}

/// One request on `service`, then its slot is closed: the next request
/// re-plans.
fn serve_one_slot(fleet: &GatewayFleet, service: &str) {
    assert!(fleet.submit(Request::new(service)).unwrap().success);
    fleet.end_slot(service);
}

/// Invalidation in a fleet is exact, as on a lone gateway: `invalidate`
/// drops one service's cached plans and nobody else's — not even a
/// shard-mate's with the identical search key.
fn assert_invalidation_spares_shard_mates(invalidate: impl Fn(&GatewayShard, &str)) {
    let services: Vec<String> = (0..16).map(|i| format!("svc-{i}")).collect();
    let names: Vec<&str> = services.iter().map(String::as_str).collect();
    let config = FleetConfig::default().gateway(GatewayConfig::builder().plan_cache(true).build());
    let (_clock, fleet) = fleet_with(&names, 2, config);

    // Two identically-scripted services owned by the *same* shard.
    let a = names[0];
    let b = *names[1..]
        .iter()
        .find(|s| fleet.route(s) == fleet.route(a))
        .expect("16 services over 4 shards put two on one shard");
    let shard = fleet.shard(fleet.route(a).unwrap()).unwrap();

    // Slot 0 gathers observations; slot 1 plans from them and stores.
    for _slot in 0..2 {
        serve_one_slot(&fleet, a);
        serve_one_slot(&fleet, b);
    }
    let stale = |service: &str| {
        let snapshot = shard.gateway().telemetry().snapshot();
        snapshot.service(service).unwrap().plan_cache_stale
    };
    let stale_before = stale(b);

    invalidate(&shard, a);
    assert_eq!(stale(a), 1, "a's stored plan was dropped");

    // b's next boundary finds its own slot-1 plan where it left it.
    serve_one_slot(&fleet, b);
    assert_eq!(
        replans(&shard, b).last().unwrap().0,
        Some(PlanSource::Cached),
        "b searched again after a was invalidated"
    );
    assert_eq!(stale(b), stale_before);
}

#[test]
fn evicting_one_service_keeps_its_shard_mates_plans_cached() {
    assert_invalidation_spares_shard_mates(|shard, service| {
        shard.gateway().evict_service(service);
    });
}

#[test]
fn overriding_one_service_keeps_its_shard_mates_plans_cached() {
    assert_invalidation_spares_shard_mates(|shard, service| {
        let strict = Requirements::new(900.0, 900.0, 0.6).unwrap();
        shard.gateway().control().set_requirement(service, strict);
    });
}

/// What a membership change costs: a service the ring moves to a joining
/// shard leaves its plan memory behind, so its first re-plan there is one
/// cold search — which finds the strategy the old shard served — and
/// every boundary after that is served from the new shard's cache.
#[test]
fn moved_service_replans_cold_once_then_cached() {
    let services: Vec<String> = (0..24).map(|i| format!("svc-{i}")).collect();
    let names: Vec<&str> = services.iter().map(String::as_str).collect();
    let config = FleetConfig::default()
        .shards(1)
        .gateway(GatewayConfig::builder().plan_cache(true).build());
    let (_clock, fleet) = fleet_with(&names, 2, config);

    // Every service reaches slot 1 on shard 0 and stores its plan there.
    for _slot in 0..2 {
        for service in &names {
            serve_one_slot(&fleet, service);
        }
    }
    let old_shard = fleet.shard(0).unwrap();

    let joiner = fleet.add_shard();
    let moved = *names
        .iter()
        .find(|s| fleet.route(s) == Some(joiner))
        .expect("24 services over 2 shards leave the joiner empty");
    let served_before = replans(&old_shard, moved).last().unwrap().clone();
    assert_eq!(served_before.0, Some(PlanSource::Cold));

    // On the joiner the service starts over: slot 0 runs the default
    // strategy, slot 1 searches, slot 2 and 3 hit.
    let new_shard = fleet.shard(joiner).unwrap();
    for _slot in 0..4 {
        serve_one_slot(&fleet, moved);
    }
    let on_joiner = replans(&new_shard, moved);
    let sources: Vec<Option<PlanSource>> = on_joiner.iter().map(|(source, _)| *source).collect();
    assert_eq!(
        sources,
        [
            None,
            Some(PlanSource::Cold),
            Some(PlanSource::Cached),
            Some(PlanSource::Cached)
        ]
    );
    assert_eq!(
        on_joiner[1].1, served_before.1,
        "the joiner's cold search finds the plan the old shard served"
    );
    let snapshot = new_shard.gateway().telemetry().snapshot();
    let gauges = snapshot.service(moved).unwrap();
    assert_eq!((gauges.plan_cache_hits, gauges.plan_cache_misses), (2, 1));
}

/// Providers registered before a shard joins are replayed onto it, so
/// services the ring moves to the newcomer still find their devices.
#[test]
fn joining_shard_receives_replayed_providers_and_serves_moved_services() {
    let services: Vec<String> = (0..24).map(|i| format!("svc-{i}")).collect();
    let names: Vec<&str> = services.iter().map(String::as_str).collect();
    let config = FleetConfig::default().shards(1);
    let (_clock, fleet) = fleet_with(&names, 2, config);
    assert!(names.iter().all(|s| fleet.route(s) == Some(0)));

    let joiner = fleet.add_shard();
    let moved: Vec<&str> = names
        .iter()
        .copied()
        .filter(|s| fleet.route(s) == Some(joiner))
        .collect();
    assert!(
        !moved.is_empty(),
        "24 services over 2 shards leave the joiner empty"
    );
    for service in moved {
        let response = fleet.submit(Request::new(service)).unwrap();
        assert!(response.success, "moved service failed on the joiner");
    }
}

/// Evicting a shard with a request still running on it must resolve that
/// request (success or `Shutdown` — never a panic or a hang), and the
/// service must immediately be servable by a surviving shard.
#[test]
fn evicted_shard_resolves_in_flight_requests_and_survivors_take_over() {
    let services: Vec<String> = (0..8).map(|i| format!("svc-{i}")).collect();
    let names: Vec<&str> = services.iter().map(String::as_str).collect();
    let clock = Arc::new(VirtualClock::new());
    let fleet = Arc::new(GatewayFleet::with_clock(
        backend(&names, 1),
        FleetConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));

    // A blocking provider the test holds at the gate, so the request is
    // guaranteed in flight when the shard is evicted.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new((Mutex::new(0u32), Condvar::new()));
    {
        let gate = Arc::clone(&gate);
        let entered = Arc::clone(&entered);
        fleet.register(FnProvider::new("dev0", "cap0", 10.0, move |_| {
            {
                let (count, cond) = &*entered;
                *count.lock().unwrap() += 1;
                cond.notify_all();
            }
            let (open, cond) = &*gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cond.wait(open).unwrap();
            }
            Ok(vec![1])
        }));
    }

    let service = names[0];
    let victim = fleet.route(service).unwrap();
    let handle = fleet.submit_async(Request::new(service)).unwrap();
    {
        let (count, cond) = &*entered;
        let mut count = count.lock().unwrap();
        while *count < 1 {
            count = cond.wait(count).unwrap();
        }
    }

    // Evict on a helper thread: dropping the shard's gateway joins its
    // event loops, which blocks until the gated leaf finishes.
    let evictor = {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || fleet.remove_shard(victim))
    };
    {
        let (open, cond) = &*gate;
        *open.lock().unwrap() = true;
        cond.notify_all();
    }
    assert!(evictor.join().expect("eviction must not panic"));
    assert!(!fleet.shard_ids().contains(&victim));

    match handle.wait() {
        Ok(response) => assert!(response.success),
        Err(RuntimeError::Shutdown) => {}
        Err(other) => panic!("unexpected error from an eviction race: {other:?}"),
    }

    // The ring re-homed the service; a survivor serves it.
    let new_owner = fleet.route(service).unwrap();
    assert_ne!(new_owner, victim);
    let response = fleet.submit(Request::new(service)).unwrap();
    assert!(response.success);
}

/// An empty fleet sheds cleanly instead of panicking.
#[test]
fn empty_fleet_rejects_submissions() {
    let clock = Arc::new(VirtualClock::new());
    let fleet = GatewayFleet::with_clock(
        backend(&["svc"], 1),
        FleetConfig::default().shards(0),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    assert_eq!(fleet.route("svc"), None);
    assert!(matches!(
        fleet.submit(Request::new("svc")),
        Err(RuntimeError::Market { .. })
    ));
}
