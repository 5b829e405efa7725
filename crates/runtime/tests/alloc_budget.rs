//! An allocation budget for the request path. One test, in a file of its
//! own: the counter is process-wide, and a second test running beside it
//! would be counted too.
//!
//! The rig is the smallest gateway that exercises the whole pipeline: a
//! virtual clock, one service of three microservices (slot 0 runs the
//! default strategy, a three-way `Par`), the plan cache on. After a
//! warm-up that fills every lazily grown buffer, the heap allocations of
//! 10 000 blocking `submit`s and of 10 000 `submit_async` + `wait` pairs
//! are counted, `Request::new`'s own `String` included.
//!
//! Measured on this rig: 6 per blocking request and 14 per asynchronous
//! one (11 and 16 while each blocking `submit` built and dropped an event
//! core of its own, and each request validated its slot's plan into a
//! leaf list and allocated its own frame arena; 13 and 18 while the
//! response deep-copied the slot's `Strategy` and every `Budget`
//! allocated its own cancel flag; 16 and 21 while `Collector::record`
//! built a `String` key for each of the three legs; 42 and 44 before that,
//! when every request deep-copied its slot's plan, allocated a `BTreeMap`
//! leaf and a path per frame, and built `InvocationOutcome` records nobody
//! read). The budgets are two above the measurement: a change that needs
//! more should say why here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qce_runtime::{
    Clock, Gateway, GatewayConfig, InMemoryMarket, MsSpec, Request, ServiceScript,
    SimulatedProvider, VirtualClock,
};
use qce_strategy::{Qos, Requirements};

/// Allocations per blocking `submit` the request path may make.
const BLOCKING_BUDGET: f64 = 8.0;
/// Allocations per `submit_async` + `wait` the request path may make.
const ASYNC_BUDGET: f64 = 16.0;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per call of `request`, over `n` calls.
fn allocations_per(n: u64, mut request: impl FnMut()) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..n {
        request();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / n as f64
}

#[test]
fn request_path_stays_within_its_allocation_budget() {
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
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
        GatewayConfig::builder().plan_cache(true).build(),
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

    let blocking = || {
        let response = gateway.submit(Request::new("svc")).unwrap();
        assert!(response.success);
    };
    let asynchronous = || {
        let handle = gateway.submit_async(Request::new("svc")).unwrap();
        assert!(handle.wait().unwrap().success);
    };
    allocations_per(2_000, blocking);
    allocations_per(2_000, asynchronous);

    let per_blocking = allocations_per(10_000, blocking);
    let per_async = allocations_per(10_000, asynchronous);
    println!("allocations per request: blocking {per_blocking:.2}, async {per_async:.2}");
    assert!(
        per_blocking <= BLOCKING_BUDGET,
        "{per_blocking:.2} allocations per blocking submit, budget {BLOCKING_BUDGET}"
    );
    assert!(
        per_async <= ASYNC_BUDGET,
        "{per_async:.2} allocations per submit_async + wait, budget {ASYNC_BUDGET}"
    );
}
