//! Integration tests for the asynchronous submission path
//! ([`Gateway::submit_async`]): panic isolation of the event loops (a
//! provider's, a timed leg's and the market's), shutdown behaviour when
//! the gateway drops with work in flight, two event loops serving what one
//! does, one wake-up per resolve instant for a client waiting on a window,
//! and queue-depth gauges that follow an async queue down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use qce_runtime::{
    Clock, FnProvider, Gateway, GatewayConfig, InMemoryMarket, Invocation, InvokeError, Market,
    MsSpec, Provider, QosClass, Request, RequestHandle, RuntimeError, ServiceResponse,
    ServiceScript, SimulatedProvider, VirtualClock,
};
use qce_strategy::{Qos, Requirements};

/// Blocks providers until the test releases them, counting entries.
struct Gate {
    state: Mutex<(bool, u32)>,
    cond: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new((false, 0)),
            cond: Condvar::new(),
        })
    }

    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cond.notify_all();
        while !state.0 {
            state = self.cond.wait(state).unwrap();
        }
    }

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

fn script(service: &str, arms: usize) -> ServiceScript {
    ServiceScript::new(
        service,
        (0..arms)
            .map(|i| MsSpec {
                name: format!("m{i}"),
                capability: format!("{service}-cap{i}"),
                prior: Qos::new(50.0, 2.0 + i as f64, 0.9).unwrap(),
            })
            .collect(),
        Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
    )
}

fn market_with(scripts: Vec<ServiceScript>) -> Box<dyn Market> {
    let market = InMemoryMarket::new();
    for script in scripts {
        market.publish(script).unwrap();
    }
    Box::new(market)
}

/// The text a panic was raised with.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic.downcast_ref::<&str>().copied().map(str::to_string);
    text.or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A provider panicking inside one arm of the first slot's parallel
    /// default must resume its panic on the thread that collects the
    /// handle — never on the event loop. The loop stays healthy: a
    /// sibling request already in flight and a request submitted *after*
    /// the panic both complete normally.
    #[test]
    fn panicking_par_arm_resumes_on_the_collector_not_the_event_loop(
        arms in 2usize..4,
        bad_seed in any::<u64>(),
    ) {
        let bad = (bad_seed as usize) % arms;
        let clock = Arc::new(VirtualClock::new());
        let gateway = Arc::new(Gateway::with_clock(
            market_with(vec![script("svc", arms), script("ok", 1)]),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        for i in 0..arms {
            if i == bad {
                // No clock binding: the panicking arm takes the blocking
                // path through the worker pool.
                gateway.registry().register(FnProvider::new(
                    format!("dev{i}"),
                    format!("svc-cap{i}"),
                    10.0,
                    |_| panic!("boom: provider exploded"),
                ));
            } else {
                gateway.registry().register(
                    SimulatedProvider::builder(format!("dev{i}"), format!("svc-cap{i}"))
                        .cost(10.0)
                        .latency(Duration::from_millis(1 + i as u64))
                        .reliability(1.0)
                        .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                        .build(),
                );
            }
        }
        gateway.registry().register(
            SimulatedProvider::builder("dev-ok", "ok-cap0")
                .cost(10.0)
                .latency(Duration::from_millis(1))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );

        let sibling = gateway.submit_async(Request::new("ok")).unwrap();
        let doomed = gateway.submit_async(Request::new("svc")).unwrap();
        let panic = catch_unwind(AssertUnwindSafe(|| doomed.wait()))
            .expect_err("the provider panic must resume on the collector");
        let message = panic_message(&*panic);
        prop_assert!(message.contains("boom"), "unexpected payload: {message}");

        // The sibling in flight during the panic and a fresh request after
        // it both resolve: the event loop was not poisoned.
        prop_assert!(sibling.wait().unwrap().success);
        let after = gateway.submit_async(Request::new("ok")).unwrap();
        prop_assert!(after.wait().unwrap().success);
    }
}

/// Bugfix regression: dropping the gateway while a blocking leaf is still
/// running on the worker pool used to panic the leaf's pool task
/// (`expect("engine outlives its walk")`). The race must resolve cleanly
/// whichever side wins: the handle resolves (success or `Shutdown`), the
/// drop completes, nothing panics or hangs.
#[test]
fn gateway_drop_races_a_blocking_leaf_without_panicking() {
    for _ in 0..25 {
        let clock = Arc::new(VirtualClock::new());
        let gateway = Arc::new(Gateway::with_clock(
            market_with(vec![script("svc", 1)]),
            GatewayConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let gate = Gate::new();
        let provider_gate = Arc::clone(&gate);
        gateway
            .registry()
            .register(FnProvider::new("dev0", "svc-cap0", 10.0, move |_| {
                provider_gate.enter();
                Ok(vec![1])
            }));
        let handle = gateway.submit_async(Request::new("svc")).unwrap();
        gate.await_entered(1);
        // The dropper blocks joining the pool until the gate opens, so the
        // leaf is guaranteed to still be running when shutdown begins.
        let dropper = std::thread::spawn(move || drop(gateway));
        gate.open();
        dropper.join().expect("gateway drop must not panic");
        match handle.wait() {
            Ok(response) => assert!(response.success),
            Err(RuntimeError::Shutdown) => {}
            Err(other) => panic!("unexpected error from a shutdown race: {other:?}"),
        }
    }
}

/// Bugfix audit (handle-leak sweep): a `RequestHandle` dropped without
/// `wait()` must not leak engine state. The handle is detached from the
/// request — the event core still drives the request to completion and
/// must then release its frames and clock registrations even though
/// nobody collects the response. 10³ dropped handles later, the core
/// drains to zero and a fresh request still completes.
#[test]
fn dropped_handles_do_not_leak_frames_or_clock_slots() {
    use qce_runtime::WorkerGuard;

    let clock = Arc::new(VirtualClock::new());
    let gateway = Arc::new(Gateway::with_clock(
        market_with(vec![script("svc", 1)]),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev0", "svc-cap0")
            .cost(10.0)
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );

    // Pin virtual time during submission so every request is admitted at
    // t = 0 with the same 1 ms completion deadline; timers then fire in
    // submission order, so the last handle is a drain barrier for all the
    // dropped ones.
    let last = {
        let _pin = WorkerGuard::enter(&*clock);
        for _ in 0..1_000 {
            drop(gateway.submit_async(Request::new("svc")).unwrap());
        }
        gateway.submit_async(Request::new("svc")).unwrap()
    };
    let response = last.wait().unwrap();
    assert!(response.success);

    // Resolving the barrier handle may race the core's cleanup of that
    // final request by a beat; everything *dropped* must already be gone.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = gateway.engine_stats();
        if stats.in_flight == 0 && stats.frames_live == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine did not drain after dropped handles: {stats:?}"
        );
        std::thread::yield_now();
    }

    // The loops are still healthy: a request submitted after the flood
    // resolves normally.
    let after = gateway.submit_async(Request::new("svc")).unwrap();
    assert!(after.wait().unwrap().success);
    let stats = gateway.engine_stats();
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.frames_live, 0);
}

/// A market whose `fetch` holds its caller at a gate, and which reports
/// being dropped — the last thing a dropping gateway does.
struct GatedMarket {
    inner: InMemoryMarket,
    gate: Arc<Gate>,
    dropped: std::sync::mpsc::Sender<()>,
}

impl Market for GatedMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        self.gate.enter();
        self.inner.fetch(service_id)
    }

    fn service_ids(&self) -> Vec<String> {
        self.inner.service_ids()
    }
}

impl Drop for GatedMarket {
    fn drop(&mut self) {
        let _ = self.dropped.send(());
    }
}

/// Bugfix regression: `submit_async`'s task holds the gateway alive for
/// the length of `prepare`, so a caller dropping its last `Arc` meanwhile
/// makes the *event-loop thread* run `Gateway::drop` — which used to join
/// every loop, itself included, and panic inside `drop` with `Resource
/// deadlock avoided`. The loop must skip its own handle: the request
/// resolves `Shutdown` and the thread exits without panicking.
#[test]
fn dropping_the_gateway_from_its_own_event_loop_does_not_panic() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let loop_panicked = Arc::new(AtomicBool::new(false));
    let previous: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync> =
        Arc::from(std::panic::take_hook());
    std::panic::set_hook({
        let (loop_panicked, previous) = (Arc::clone(&loop_panicked), Arc::clone(&previous));
        Box::new(move |info| {
            let thread = std::thread::current();
            if thread
                .name()
                .is_some_and(|n| n.starts_with("qce-event-loop-"))
            {
                loop_panicked.store(true, Ordering::SeqCst);
            }
            previous(info);
        })
    });

    let clock = Arc::new(VirtualClock::new());
    let gate = Gate::new();
    let (dropped, gateway_dropped) = std::sync::mpsc::channel();
    let inner = InMemoryMarket::new();
    inner.publish(script("svc", 1)).unwrap();
    let gateway = Arc::new(Gateway::with_clock(
        Box::new(GatedMarket {
            inner,
            gate: Arc::clone(&gate),
            dropped,
        }),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev0", "svc-cap0")
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    let handle = gateway.submit_async(Request::new("svc")).unwrap();
    // The loop thread is inside `prepare`, holding the only other `Arc`.
    gate.await_entered(1);
    drop(gateway);
    gate.open();
    let result = handle.wait();
    // The market goes with the gateway's fields, after `Gateway::drop`
    // returned or unwound: by then a panic has been through the hook.
    let dropped = gateway_dropped.recv_timeout(Duration::from_secs(20));
    std::panic::set_hook(Box::new(move |info| previous(info)));
    assert!(matches!(result, Err(RuntimeError::Shutdown)), "{result:?}");
    dropped.expect("the gateway was never dropped");
    assert!(
        !loop_panicked.load(Ordering::SeqCst),
        "Gateway::drop panicked on the event-loop thread"
    );
}

/// What a gateway with `event_loops` loops answers to 400 requests over
/// four services (slots of 25, so each service re-plans three times), all
/// submitted at t = 0: every reply's `(service, strategy, cost, latency)`,
/// sorted.
fn served_by(event_loops: usize) -> Vec<(usize, String, u64, Duration)> {
    use qce_runtime::WorkerGuard;

    const SERVICES: usize = 4;
    let clock = Arc::new(VirtualClock::new());
    let scripts = (0..SERVICES).map(|s| {
        let mut script = script(&format!("svc{s}"), 2);
        script.slot_size = 25;
        script
    });
    let gateway = Arc::new(Gateway::with_clock(
        market_with(scripts.collect()),
        GatewayConfig::builder().event_loops(event_loops).build(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    for s in 0..SERVICES {
        for arm in 0..2 {
            gateway.registry().register(
                SimulatedProvider::builder(format!("dev{s}-{arm}"), format!("svc{s}-cap{arm}"))
                    .cost(10.0 + (2 * s + arm) as f64)
                    .latency(Duration::from_millis(1 + (s + 3 * arm) as u64))
                    .reliability(1.0)
                    .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                    .build(),
            );
        }
    }
    // Pinned: every request is admitted and planned before any completes,
    // so no plan depends on how far the loops had got.
    let handles: Vec<_> = {
        let _pin = WorkerGuard::enter(&*clock);
        (0..400)
            .map(|i| {
                let service = i % SERVICES;
                let request = Request::new(format!("svc{service}"));
                (service, gateway.submit_async(request).unwrap())
            })
            .collect()
    };
    let mut served: Vec<_> = handles
        .into_iter()
        .map(|(service, handle)| {
            let reply = handle.wait().expect("every provider is reliable");
            assert!(reply.success);
            let cost = reply.cost.to_bits();
            (service, reply.strategy_text, cost, reply.latency)
        })
        .collect();
    served.sort_unstable();
    // Every loop is idle (or about to be): the drop joins them all.
    drop(Arc::into_inner(gateway).expect("the handles held no gateway"));
    served
}

/// `event_loops` above one: two loops share the core (and its parker, so a
/// post wakes both), and serve exactly what one loop serves.
#[test]
fn two_event_loops_serve_what_one_does() {
    let one = served_by(1);
    assert_eq!(one.len(), 400);
    assert!(one.iter().any(|(_, strategy, ..)| *strategy != one[0].1));
    assert_eq!(served_by(2), one);
}

/// Three one-leg services of 1, 2 and 3 ms on a fresh virtual clock, every
/// request in one slot.
fn three_instant_gateway() -> (Arc<VirtualClock>, Arc<Gateway>) {
    let clock = Arc::new(VirtualClock::new());
    let scripts = (0..3).map(|s| {
        let mut script = script(&format!("svc{s}"), 1);
        script.slot_size = 1 << 30;
        script
    });
    let gateway = Arc::new(Gateway::with_clock(
        market_with(scripts.collect()),
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    for s in 0..3u64 {
        gateway.registry().register(
            SimulatedProvider::builder(format!("dev{s}"), format!("svc{s}-cap0"))
                .cost(10.0 + s as f64)
                .latency(Duration::from_millis(1 + s))
                .reliability(1.0)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build(),
        );
    }
    (clock, gateway)
}

/// A window of 1 000 requests submitted at one pinned instant resolves at
/// three instants. The loop hands a parked waiter its wake-up at the end
/// of the instant its request resolved at, not inside the resolve, so the
/// one client waiting on the handles in order is woken at most once per
/// instant, where a wake sent inside each resolve could cost it one per
/// request. What it collects is what the same requests get through
/// blocking `submit`.
#[test]
fn a_window_wakes_its_waiter_at_most_once_per_resolve_instant() {
    use qce_runtime::WorkerGuard;

    let requests = || (0..1_000).map(|i| Request::new(format!("svc{}", i % 3)));
    let (clock, gateway) = three_instant_gateway();
    let handles: Vec<_> = {
        let _pin = WorkerGuard::enter(&*clock);
        requests()
            .map(|request| gateway.submit_async(request).unwrap())
            .collect()
    };
    let windowed: Vec<_> = handles
        .into_iter()
        .map(|handle| handle.wait().unwrap())
        .collect();
    let mut instants: Vec<Duration> = windowed.iter().map(|reply| reply.latency).collect();
    instants.sort_unstable();
    instants.dedup();
    assert_eq!(instants.len(), 3, "{instants:?}");
    let wakes = gateway.engine_stats().waiter_wakes;
    assert!(
        wakes <= 3,
        "{wakes} waiter wake-ups for three resolve instants"
    );

    let (_, oracle) = three_instant_gateway();
    for (request, windowed) in requests().zip(&windowed) {
        let blocking = oracle.submit(request).unwrap();
        assert_eq!(&blocking, windowed);
        assert_eq!(blocking.cost.to_bits(), windowed.cost.to_bits());
    }
    assert_eq!(oracle.engine_stats().waiter_wakes, 0, "nobody waited");
}

/// The same window holds its thousand pending completions in three runs,
/// one per resolve instant: the event core files timers that share a
/// deadline together instead of ordering each against the others.
#[test]
fn a_window_of_one_instant_holds_many_timers_in_few_runs() {
    use qce_runtime::WorkerGuard;

    let (clock, gateway) = three_instant_gateway();
    let handles: Vec<_> = {
        let _pin = WorkerGuard::enter(&*clock);
        (0..1_000)
            .map(|i| gateway.submit_async(Request::new(format!("svc{}", i % 3))))
            .collect::<Result<_, _>>()
            .unwrap()
    };
    for handle in handles {
        handle.wait().unwrap();
    }
    let stats = gateway.engine_stats();
    assert_eq!((stats.timers_peak, stats.timer_runs_peak), (1_000, 3));
}

/// One service whose single leg blocks until `gate` opens, behind a gate
/// of one in-flight slot and `queue` waiting places.
fn gated_gateway(queue: usize, gate: &Arc<Gate>) -> Arc<Gateway> {
    let config = GatewayConfig::builder()
        .max_in_flight(1)
        .admission_queue(queue)
        .build();
    let gateway = Arc::new(Gateway::new(market_with(vec![script("svc", 1)]), config));
    let provider_gate = Arc::clone(gate);
    gateway
        .registry()
        .register(FnProvider::new("dev", "svc-cap0", 10.0, move |_| {
            provider_gate.enter();
            Ok(vec![1])
        }));
    gateway
}

/// Queue depth as the service's gauges read it: the total and `class`'s.
fn queue_depths(gateway: &Gateway, class: QosClass) -> (u64, u64) {
    let snapshot = gateway.telemetry().snapshot();
    let service = snapshot.service("svc").unwrap();
    let class = service.class(class).map_or(0, |c| c.queue_depth);
    (service.admission_queue_depth, class)
}

/// The async twin of the blocking queue test: the queue-depth gauges
/// follow an async queue down as well as up. A slot handed to a queued
/// async request, and a queued Scavenger preempted by a Critical arrival,
/// each report the depth they leave behind. Every reading is asserted
/// after the gate opens, so a wrong one fails the test instead of leaving
/// a leg blocked under the gateway's drop.
#[test]
fn async_queue_depth_gauges_drain_with_grants_and_preemption() {
    let deadline = Duration::from_secs(600);
    let gate = Gate::new();
    let gateway = gated_gateway(4, &gate);
    let burst: Vec<_> = (0..3)
        .map(|_| {
            let request = Request::new("svc").deadline(deadline);
            gateway.submit_async(request).unwrap()
        })
        .collect();
    let queued = queue_depths(&gateway, QosClass::Interactive);
    gate.open();
    for handle in burst {
        assert!(handle.wait().unwrap().success);
    }
    assert_eq!(queued, (2, 2));
    assert_eq!(
        queue_depths(&gateway, QosClass::Interactive),
        (0, 0),
        "the queue drained"
    );

    let gate = Gate::new();
    let gateway = gated_gateway(1, &gate);
    let submit = |class| {
        let request = Request::new("svc").class(class).deadline(deadline);
        gateway.submit_async(request).unwrap()
    };
    let running = submit(QosClass::Interactive);
    let victim = submit(QosClass::Scavenger);
    let queued = queue_depths(&gateway, QosClass::Scavenger);
    let critical = submit(QosClass::Critical);
    let shed = victim.wait();
    let preempted = queue_depths(&gateway, QosClass::Scavenger);
    let waiting = queue_depths(&gateway, QosClass::Critical);
    gate.open();
    assert!(running.wait().unwrap().success);
    assert!(critical.wait().unwrap().success);
    assert!(matches!(shed, Err(RuntimeError::Overloaded { .. })));
    assert_eq!(queued, (1, 1));
    assert_eq!(
        preempted,
        (1, 0),
        "the preempted Scavenger left its class's queue"
    );
    assert_eq!(waiting, (1, 1));
    assert_eq!(queue_depths(&gateway, QosClass::Critical), (0, 0));
}

/// Collects `handle`, polling with `try_wait` for at most ten seconds of
/// real time: a handle whose loop died fails the test instead of hanging
/// it. A panic the request raised resumes here.
fn collect_within_ten_seconds(mut handle: RequestHandle) -> Result<ServiceResponse, RuntimeError> {
    let give_up = Instant::now() + Duration::from_secs(10);
    loop {
        handle = match handle.try_wait() {
            Ok(result) => return result,
            Err(pending) => pending,
        };
        assert!(Instant::now() < give_up, "the request never resolved");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Gateway over `market` with service `ok`'s one 1 ms leg registered.
fn gateway_serving_ok(market: Box<dyn Market>) -> Arc<Gateway> {
    let clock = Arc::new(VirtualClock::new());
    let gateway = Arc::new(Gateway::with_clock(
        market,
        GatewayConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    gateway.registry().register(
        SimulatedProvider::builder("dev-ok", "ok-cap0")
            .latency(Duration::from_millis(1))
            .reliability(1.0)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
    );
    gateway
}

/// Asserts that `submit_async(service)` resumes a panic whose text names
/// `what` on the collecting thread, and that the gateway's loop then
/// serves `ok`.
fn panics_on_wait_and_keeps_serving(gateway: &Arc<Gateway>, service: &str, what: &str) {
    let doomed = gateway.submit_async(Request::new(service)).unwrap();
    let panic = catch_unwind(AssertUnwindSafe(|| collect_within_ten_seconds(doomed)))
        .expect_err("the panic resumes on the collecting thread");
    let message = panic_message(&*panic);
    assert!(message.contains(what), "unexpected payload: {message}");
    let after = gateway.submit_async(Request::new("ok")).unwrap();
    assert!(collect_within_ten_seconds(after).unwrap().success);
}

/// A market whose `fetch` of service `bad` panics.
struct PanickingMarket(InMemoryMarket);

impl Market for PanickingMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        assert_ne!(service_id, "bad", "boom: the market exploded");
        self.0.fetch(service_id)
    }

    fn service_ids(&self) -> Vec<String> {
        self.0.service_ids()
    }
}

/// Bugfix regression: a panic in user code that an admitted request's
/// continuation calls (here `Market::fetch`, while the slot is planned)
/// used to unwind the event-loop thread. The request resolved `Shutdown`
/// and lost the panic, and every later `submit_async` on the gateway
/// waited for ever. The panic resumes on `wait`, as `submit` hands it to
/// its caller, and the loop keeps serving.
#[test]
fn a_panicking_market_fetch_resumes_on_wait_and_the_loop_keeps_serving() {
    let inner = InMemoryMarket::new();
    inner.publish(script("ok", 1)).unwrap();
    let gateway = gateway_serving_ok(Box::new(PanickingMarket(inner)));
    panics_on_wait_and_keeps_serving(&gateway, "bad", "the market exploded");
    panics_on_wait_and_keeps_serving(&gateway, "bad", "the market exploded");
}

/// A provider that takes its invocations as clock events and panics
/// computing one.
struct PanickingTimedLeg;

impl Provider for PanickingTimedLeg {
    fn id(&self) -> &str {
        "bad-dev"
    }

    fn capability(&self) -> &str {
        "bad-cap0"
    }

    fn cost(&self) -> f64 {
        10.0
    }

    fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        Ok(vec![1])
    }

    fn try_timed_invoke(
        &self,
        _request: &Invocation,
        _clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        panic!("boom: the timed leg exploded")
    }
}

fn gateway_with_a_panicking_timed_leg() -> Arc<Gateway> {
    let gateway = gateway_serving_ok(market_with(vec![script("bad", 1), script("ok", 1)]));
    gateway.registry().register(Arc::new(PanickingTimedLeg));
    gateway
}

/// Bugfix regression: `Provider::try_timed_invoke` runs on the event loop,
/// and a panic in it used to unwind the loop thread, hanging its own
/// request and every later one. It is that leg's panic, delivered as a
/// blocking leg's is: `wait` resumes it, and the loop keeps serving.
#[test]
fn a_panicking_timed_leg_resumes_on_wait_and_the_loop_keeps_serving() {
    let gateway = gateway_with_a_panicking_timed_leg();
    panics_on_wait_and_keeps_serving(&gateway, "bad", "the timed leg exploded");
    panics_on_wait_and_keeps_serving(&gateway, "bad", "the timed leg exploded");
    let stats = gateway.engine_stats();
    assert_eq!((stats.in_flight, stats.frames_live), (0, 0));
}

/// The same leg under a blocking `submit` panics its caller, and the next
/// `submit` on that thread is served.
#[test]
fn a_panicking_timed_leg_panics_a_blocking_submit_which_keeps_serving() {
    let gateway = gateway_with_a_panicking_timed_leg();
    for _ in 0..2 {
        let panic = catch_unwind(AssertUnwindSafe(|| gateway.submit(Request::new("bad"))))
            .expect_err("the leg's panic reaches the caller");
        let message = panic_message(&*panic);
        assert!(message.contains("the timed leg exploded"), "{message}");
        assert!(gateway.submit(Request::new("ok")).unwrap().success);
    }
}

/// A timed provider whose `cost` panics while its second invocation is
/// recorded, and only then.
#[derive(Default)]
struct CostPanicsOnSecondRequest {
    invocations: std::sync::atomic::AtomicU32,
}

impl Provider for CostPanicsOnSecondRequest {
    fn id(&self) -> &str {
        "pricy-dev"
    }

    fn capability(&self) -> &str {
        "pricy-cap0"
    }

    fn cost(&self) -> f64 {
        let n = self.invocations.load(std::sync::atomic::Ordering::SeqCst);
        assert_ne!(n, 2, "boom: the cost exploded");
        10.0
    }

    fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        unreachable!("always timed")
    }

    fn try_timed_invoke(
        &self,
        _request: &Invocation,
        _clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        self.invocations
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Some((Duration::from_millis(1), Ok(vec![1])))
    }
}

/// Bugfix regression: a completed leg's cost used to be read on the event
/// loop, uncaught, while the leg was recorded, so a provider whose `cost`
/// panicked ended the loop thread and every later `submit_async` hung. The
/// cost is read with the leg, under its `catch_unwind`: the panic resumes
/// on `wait`, and the loop serves the service's next request.
#[test]
fn a_panicking_provider_cost_resumes_on_wait_and_the_loop_keeps_serving() {
    let gateway = gateway_serving_ok(market_with(vec![script("pricy", 1), script("ok", 1)]));
    gateway
        .registry()
        .register(Arc::new(CostPanicsOnSecondRequest::default()));
    let first = gateway.submit_async(Request::new("pricy")).unwrap();
    assert!(collect_within_ten_seconds(first).unwrap().success);
    panics_on_wait_and_keeps_serving(&gateway, "pricy", "the cost exploded");
    let third = gateway.submit_async(Request::new("pricy")).unwrap();
    let served = collect_within_ten_seconds(third).unwrap();
    assert!(served.success);
    assert_eq!(served.cost, 10.0);
}
