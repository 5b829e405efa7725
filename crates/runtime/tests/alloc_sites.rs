//! Where the request path allocates: the sites behind each row of
//! `alloc_budget.rs`. Ignored by default (a backtrace per allocation takes
//! seconds); run it alone with
//!
//! ```sh
//! cargo test --release -p qce-runtime --test alloc_sites -- --ignored --nocapture
//! ```
//!
//! It prints, per row, every distinct site: the size, the first
//! `qce_runtime` frames of the allocating call and the count per request.
//! A file of its own, because its counter is process-wide. The rig and the
//! three rows are `alloc_budget.rs`'s; a release build names the frames
//! that survive inlining, a `line-tables-only` build names the rest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use qce_runtime::{
    Clock, Gateway, GatewayConfig, GatewayConfigBuilder, InMemoryMarket, MsSpec, QosClass, Request,
    ServiceScript, SimulatedProvider, VirtualClock,
};
use qce_strategy::{Qos, Requirements};

/// Frames of the crate kept per site.
const FRAMES: usize = 3;
/// Requests in flight per window of the bounded row.
const WINDOW: usize = 16;

struct Recording;

/// Set while a row is counted: every thread's allocations are recorded.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// `(size, frames)` → allocations.
static SITES: Mutex<BTreeMap<(usize, String), u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Set while this thread records a site: the record's own allocations
    /// (the backtrace, its text, the map) are not sites.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// Records one allocation of `size` bytes at the caller's site, unless
/// this thread is recording one already.
fn record(size: usize) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let Ok(false) = INSIDE.try_with(|inside| inside.replace(true)) else {
        return;
    };
    let trace = Backtrace::force_capture().to_string();
    let frames: Vec<&str> = trace
        .lines()
        .filter_map(|line| line.split_once(": ").map(|(_, name)| name.trim()))
        .filter(|name| name.starts_with("qce_runtime::"))
        .take(FRAMES)
        .collect();
    let site = if frames.is_empty() {
        "(outside qce_runtime)".to_string()
    } else {
        frames.join(" < ")
    };
    *SITES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .entry((size, site))
        .or_default() += 1;
    INSIDE.with(|inside| inside.set(false));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the recorder allocates only through
// this allocator again, behind its re-entrancy guard.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Recording = Recording;

/// Records the allocations of `n` calls of `request` and prints them per
/// site, `per` requests to a call.
fn sites(row: &str, n: u64, per: u64, mut request: impl FnMut()) {
    SITES.lock().unwrap().clear();
    RECORDING.store(true, Ordering::SeqCst);
    for _ in 0..n {
        request();
    }
    RECORDING.store(false, Ordering::SeqCst);
    let sites = std::mem::take(&mut *SITES.lock().unwrap());
    let requests = (n * per) as f64;
    let total: u64 = sites.values().sum();
    println!(
        "{row}: {:.2} allocations per request",
        total as f64 / requests
    );
    let mut rows: Vec<_> = sites.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for ((size, site), count) in rows {
        println!("  {:6.2}  {size:5} B  {site}", count as f64 / requests);
    }
}

/// `alloc_budget.rs`'s rig.
fn rig(clock: &Arc<dyn Clock>, config: GatewayConfigBuilder) -> Arc<Gateway> {
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
    script.slot_size = u32::MAX;
    let market = InMemoryMarket::new();
    market.publish(script).unwrap();
    let gateway = Arc::new(Gateway::with_clock(
        Box::new(market),
        config.plan_cache(true).build(),
        Arc::clone(clock),
    ));
    for i in 0..3u64 {
        gateway.registry().register(
            SimulatedProvider::builder(format!("d{i}/cap{i}"), format!("cap{i}"))
                .latency(Duration::from_millis(2 + i))
                .cost(5.0)
                .response(vec![b'r'])
                .clock(Arc::clone(clock))
                .build(),
        );
    }
    gateway
}

#[test]
#[ignore = "a backtrace per allocation: seconds, and only read by a person"]
fn print_the_request_paths_allocation_sites() {
    let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
    let gateway = rig(&clock, GatewayConfig::builder());
    let bounded = rig(
        &clock,
        GatewayConfig::builder()
            .max_in_flight(2)
            .admission_queue(64),
    );
    let blocking = || {
        assert!(gateway.submit(Request::new("svc")).unwrap().success);
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
    for _ in 0..2_000 {
        blocking();
        asynchronous();
    }
    for _ in 0..200 {
        window();
    }
    sites("blocking", 500, 1, blocking);
    sites("async", 500, 1, asynchronous);
    sites("bounded window", 50, WINDOW as u64, &mut window);
}
