//! Fault-injection tests: devices leaving, going offline, overload, and
//! market outages — the "unreliable and dynamic resources" the system is
//! built for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qce_runtime::{
    Gateway, GatewayConfig, InMemoryMarket, Market, MsSpec, Request, RuntimeError, ServiceScript,
    SimulatedProvider,
};
use qce_strategy::{Qos, Requirements};

fn script(slot_size: u32, names: &[&str]) -> ServiceScript {
    let mut s = ServiceScript::new(
        "svc",
        names
            .iter()
            .map(|name| MsSpec {
                name: (*name).to_string(),
                capability: format!("cap-{name}"),
                prior: Qos::new(20.0, 5.0, 0.8).unwrap(),
            })
            .collect(),
        Requirements::new(100.0, 100.0, 0.9).unwrap(),
    );
    s.slot_size = slot_size;
    s
}

fn provider(name: &str, reliability: f64, ms: u64) -> Arc<SimulatedProvider> {
    SimulatedProvider::builder(format!("dev/{name}"), format!("cap-{name}"))
        .cost(20.0)
        .latency(Duration::from_millis(ms))
        .reliability(reliability)
        .seed(1)
        .build()
}

#[test]
fn offline_device_is_routed_around_by_the_strategy() {
    let market = InMemoryMarket::new();
    market.publish(script(20, &["x", "y"])).unwrap();
    let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
    let x = provider("x", 1.0, 2);
    gateway.registry().register(Arc::clone(&x) as _);
    gateway.registry().register(provider("y", 1.0, 6));

    // Healthy warm-up.
    for _ in 0..20 {
        assert!(gateway.submit(Request::new("svc")).unwrap().success);
    }
    // x's device goes dark: invocations fail instantly, but the equivalent
    // microservice y keeps the service alive within the same request.
    x.set_online(false);
    let mut ok = 0;
    for _ in 0..20 {
        if gateway.submit(Request::new("svc")).unwrap().success {
            ok += 1;
        }
    }
    assert_eq!(ok, 20, "fail-over to y keeps every request alive");
    // Force the slot to turn over so the generator sees the failures.
    gateway.end_slot("svc");
    gateway.submit(Request::new("svc")).unwrap();
    let strategy = gateway.current_strategy("svc").unwrap();
    assert!(
        !strategy.starts_with('x'),
        "offline device should not lead: {strategy}"
    );
}

#[test]
fn departed_device_fails_planning_until_replacement_registers() {
    let market = InMemoryMarket::new();
    market.publish(script(5, &["x"])).unwrap();
    let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
    gateway.registry().register(provider("x", 1.0, 1));
    assert!(gateway.submit(Request::new("svc")).unwrap().success);

    // The only provider for the capability leaves the environment.
    assert!(gateway.registry().deregister("dev/x"));
    gateway.end_slot("svc");
    assert!(matches!(
        gateway.submit(Request::new("svc")),
        Err(RuntimeError::NoProvider { .. })
    ));

    // A replacement shows up; planning succeeds again.
    gateway.registry().register(provider("x", 1.0, 1));
    assert!(gateway.submit(Request::new("svc")).unwrap().success);
}

#[test]
fn market_outage_after_first_fetch_is_invisible() {
    /// A market that can be switched off.
    struct FlakyMarket {
        inner: InMemoryMarket,
        up: AtomicBool,
    }
    impl Market for FlakyMarket {
        fn fetch(&self, id: &str) -> Result<ServiceScript, RuntimeError> {
            if self.up.load(Ordering::SeqCst) {
                self.inner.fetch(id)
            } else {
                Err(RuntimeError::Market {
                    reason: "cloud unreachable".to_string(),
                })
            }
        }
        fn service_ids(&self) -> Vec<String> {
            self.inner.service_ids()
        }
    }

    let inner = InMemoryMarket::new();
    inner.publish(script(5, &["x"])).unwrap();
    let market = Arc::new(FlakyMarket {
        inner,
        up: AtomicBool::new(true),
    });
    struct Shared(Arc<FlakyMarket>);
    impl Market for Shared {
        fn fetch(&self, id: &str) -> Result<ServiceScript, RuntimeError> {
            self.0.fetch(id)
        }
        fn service_ids(&self) -> Vec<String> {
            self.0.service_ids()
        }
    }
    let gateway = Gateway::new(
        Box::new(Shared(Arc::clone(&market))),
        GatewayConfig::default(),
    );
    gateway.registry().register(provider("x", 1.0, 1));

    // First request downloads the script.
    assert!(gateway.submit(Request::new("svc")).unwrap().success);
    // The cloud goes away — the edge keeps working from its local cache
    // ("the request can be processed entirely within the edge's local
    // environment", Section IV.A).
    market.up.store(false, Ordering::SeqCst);
    for _ in 0..12 {
        assert!(gateway.submit(Request::new("svc")).unwrap().success);
    }
    // A *new* service, however, cannot be provisioned during the outage.
    assert!(matches!(
        gateway.submit(Request::new("other")),
        Err(RuntimeError::Market { .. })
    ));
}

#[test]
fn overloaded_provider_degrades_gracefully() {
    let market = InMemoryMarket::new();
    market.publish(script(1000, &["x", "y"])).unwrap();
    let gateway = Arc::new(Gateway::new(Box::new(market), GatewayConfig::default()));
    // x is better but has a single slot; y is slower but unlimited.
    gateway.registry().register(
        SimulatedProvider::builder("dev/x", "cap-x")
            .cost(20.0)
            .latency(Duration::from_millis(20))
            .capacity(1)
            .build(),
    );
    gateway.registry().register(provider("y", 1.0, 8));

    // Four concurrent clients: only one fits on x at a time; the rest
    // fall over to y inside the same request.
    let successes: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let gw = Arc::clone(&gateway);
                scope.spawn(move || (0..5).all(|_| gw.submit(Request::new("svc")).unwrap().success))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        successes.iter().all(|&ok| ok),
        "equivalents absorb the overload: {successes:?}"
    );
    // The capacity-capped leg blocks, so it ran on the gateway's pool,
    // and every pool job has finished once the clients are back. (A job
    // counts itself out just after its leg resolves the request, hence
    // the short wait.)
    assert!(
        gateway.pool_stats().submitted > 0,
        "x's legs ran on the pool"
    );
    let settled = (0..500).any(|_| {
        let idle = gateway.pool_stats().running == 0;
        if !idle {
            std::thread::sleep(Duration::from_millis(1));
        }
        idle
    });
    assert!(settled, "{:?}", gateway.pool_stats());
}

#[test]
fn all_devices_failing_reports_failure_not_error() {
    let market = InMemoryMarket::new();
    market.publish(script(10, &["x", "y"])).unwrap();
    let gateway = Gateway::new(Box::new(market), GatewayConfig::default());
    let x = provider("x", 0.0, 1);
    let y = provider("y", 0.0, 1);
    gateway.registry().register(x as _);
    gateway.registry().register(y as _);
    let response = gateway.submit(Request::new("svc")).unwrap();
    assert!(!response.success);
    assert!(response.payload.is_none());
    assert_eq!(response.cost, 40.0, "both tried, both charged");
}
