//! The synchronization a request pays: holds of the event core's lock and
//! of the `VirtualClock`'s lock per request, on `tests/alloc_budget.rs`'s
//! rig (one service of three microservices, its slot running the default
//! three-way `Par`, the plan cache on). In the crate, because the clock's
//! count is not public. Each core and each clock counts its holds in a
//! plain integer under the lock it counts (`EngineStats::lock_holds`,
//! `VirtualClock::lock_holds`), so the gauge adds no atomic.
//!
//! After a warm-up, three stretches are counted: blocking `submit`s,
//! `submit_async` + `wait` pairs, and windows of a second gateway bounded
//! at two in flight with a queue of 64, each window 16 `submit_async` over
//! the four classes in turn and then a `wait` on each. A blocking request
//! is counted on the core its thread keeps idle, the others on their
//! gateway's core. The bounded gateway has a clock of its own: the
//! queue-deadline cancels of the windows it queued fire later in virtual
//! time, and on a shared clock they would wake its loop during the other
//! stretches.
//!
//! Measured on this rig (core / clock holds per request): blocking 5 / 5,
//! async 8 / 7, bounded window 6 / 3.69. The first two rows are the same
//! on every run, and CI pins their printed line. The window row is not:
//! how many of a window's requests queue, and whether a post finds the
//! loop's signal armed, depends on how far the loop got while the client
//! submitted, so it read 5.93-6.31 / 3.58-4.20 over fourteen release runs
//! beside a CPU hog; it is printed on a line of its own and held to its
//! budget only. Where a blocking request's five
//! core holds go: its submission; one per park, before each of the three
//! leg instants (the lock is kept across the turns of an instant while
//! nothing is deferred); and the turn that finds the request resolved,
//! which also takes the result and retires the core. Its five clock
//! holds: the worker registration and its release, and one per sleep to a
//! leg's deadline. The budgets are the measurement plus half a hold, the
//! window's plus one hold for its spread (still below the 8 core holds it
//! took before): a change that needs more should say why here.
//!
//! History: 10 / 8, 10 / 8 and 8 / 4.69 while a submission roused its own
//! core (an arm's reserve, a notify, and the release the next idle turn
//! made), a driver took the core lock once per turn, and a blocking drive
//! took it twice more after the request resolved, to collect the result
//! and to retire the core.

use std::sync::Arc;
use std::time::Duration;

use qce_strategy::{Qos, Requirements};

use crate::clock::{Clock, Parker, VirtualClock};
use crate::{
    Gateway, GatewayConfig, GatewayConfigBuilder, InMemoryMarket, MsSpec, QosClass, Request,
    ServiceScript, SimulatedProvider,
};

/// Core / clock holds per blocking `submit` the request path may take.
const BLOCKING_BUDGET: (f64, f64) = (5.5, 5.5);
/// Core / clock holds per `submit_async` + `wait`.
const ASYNC_BUDGET: (f64, f64) = (8.5, 7.5);
/// Core / clock holds per request of a bounded classed window.
const WINDOW_BUDGET: (f64, f64) = (7.0, 4.69);
/// Requests in flight per window of the bounded stretch.
const WINDOW: usize = 16;

/// `tests/alloc_budget.rs`'s rig: one service of three microservices on
/// `clock`, its slot running the default strategy, behind a gateway built
/// with `config`.
fn rig(clock: &Arc<VirtualClock>, config: GatewayConfigBuilder) -> Arc<Gateway> {
    let clock: Arc<dyn Clock> = Arc::clone(clock) as Arc<dyn Clock>;
    let mut script = ServiceScript::new(
        "svc",
        (0..3)
            .map(|i| MsSpec {
                name: format!("m{i}"),
                capability: format!("cap{i}"),
                prior: Qos::new(50.0, 2.0 + f64::from(i), 0.9).unwrap(),
            })
            .collect(),
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    );
    // One slot for the whole test: no re-plan inside a counted stretch.
    script.slot_size = u32::MAX;
    let market = InMemoryMarket::new();
    market.publish(script).unwrap();
    let gateway = Arc::new(Gateway::with_clock(
        Box::new(market),
        config.plan_cache(true).build(),
        Arc::clone(&clock),
    ));
    for i in 0..3u64 {
        gateway.registry().register(
            SimulatedProvider::builder(format!("d{i}/cap{i}"), format!("cap{i}"))
                .latency(Duration::from_millis(2 + i))
                .cost(5.0)
                .response(vec![b'r'])
                .clock(Arc::clone(&clock))
                .build(),
        );
    }
    gateway
}

/// Core and clock holds per request over `n` calls of `request`, the core's
/// read by `core_holds`.
fn holds_per(
    clock: &VirtualClock,
    n: u64,
    core_holds: impl Fn() -> u64,
    mut request: impl FnMut(),
) -> (f64, f64) {
    let (core, clock_holds) = (core_holds(), clock.lock_holds());
    for _ in 0..n {
        request();
    }
    let per = |before: u64, after: u64| (after - before) as f64 / n as f64;
    (
        per(core, core_holds()),
        per(clock_holds, clock.lock_holds()),
    )
}

#[test]
fn a_request_takes_few_lock_holds() {
    let clock = Arc::new(VirtualClock::new());
    let gateway = rig(&clock, GatewayConfig::builder());
    let window_clock = Arc::new(VirtualClock::new());
    let bounded = rig(
        &window_clock,
        GatewayConfig::builder()
            .max_in_flight(2)
            .admission_queue(64),
    );

    let blocking = || {
        let response = gateway.submit(Request::new("svc")).unwrap();
        assert!(response.success);
    };
    // The core a blocking `submit` leaves idle on this thread.
    let idle_core_holds = || {
        let core = Parker::take_idle_core(&*clock).expect("a blocking submit left its core");
        let holds = core.stats().lock_holds;
        Parker::keep_idle_core(core);
        holds
    };
    let asynchronous = || {
        let handle = gateway.submit_async(Request::new("svc")).unwrap();
        assert!(handle.wait().unwrap().success);
    };
    let mut handles = Vec::with_capacity(WINDOW);
    let mut window = || {
        handles.extend((0..WINDOW).map(|i| {
            let class = QosClass::ALL[i % QosClass::ALL.len()];
            bounded
                .submit_async(Request::new("svc").class(class))
                .unwrap()
        }));
        for handle in handles.drain(..) {
            assert!(handle.wait().unwrap().success);
        }
    };
    for _ in 0..100 {
        blocking();
        asynchronous();
    }
    (0..20).for_each(|_| window());

    let per_blocking = holds_per(&clock, 1_000, idle_core_holds, blocking);
    let gateway_holds = || gateway.engine_stats().lock_holds;
    let per_async = holds_per(&clock, 1_000, gateway_holds, asynchronous);
    let bounded_holds = || bounded.engine_stats().lock_holds;
    let (core, clock_holds) = holds_per(&window_clock, 100, bounded_holds, &mut window);
    let per_window = (core / WINDOW as f64, clock_holds / WINDOW as f64);
    println!(
        "lock holds per request (core/clock): blocking {:.2}/{:.2}, async {:.2}/{:.2}",
        per_blocking.0, per_blocking.1, per_async.0, per_async.1
    );
    println!(
        "lock holds per request of a bounded window (core/clock): {:.2}/{:.2}",
        per_window.0, per_window.1
    );
    for (what, measured, budget) in [
        ("blocking submit", per_blocking, BLOCKING_BUDGET),
        ("submit_async + wait", per_async, ASYNC_BUDGET),
        ("windowed submit_async + wait", per_window, WINDOW_BUDGET),
    ] {
        assert!(
            measured.0 <= budget.0 && measured.1 <= budget.1,
            "{what}: {measured:?} core/clock holds per request, budget {budget:?}"
        );
    }
}
