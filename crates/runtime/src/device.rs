//! Device-side microservice providers.
//!
//! A [`Provider`] is the gateway's handle to one microservice hosted on one
//! edge device. [`SimulatedProvider`] emulates the paper's testbed
//! microservices (a DS1820 sensor read, a CPU-temperature estimator, a web
//! lookup) with configurable latency, reliability, and cost — the same code
//! path as a real device (a blocking invocation on the executor's thread),
//! with a [`Clock::sleep`] standing in for sensor and network I/O. On the
//! default [`WallClock`] that is a real sleep; on a
//! [`VirtualClock`](crate::VirtualClock) the latency is simulated
//! deterministically without blocking real time. [`FnProvider`] wraps an
//! arbitrary closure for microservices that do real computation.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::clock::{Clock, WallClock};
use crate::message::{Invocation, InvokeError};

/// A microservice endpoint that the strategy executor can invoke.
///
/// Implementations must be thread-safe: the speculative-parallel pattern
/// invokes different providers from different threads simultaneously, and
/// the same provider may serve concurrent requests.
pub trait Provider: Send + Sync {
    /// Globally unique provider id, conventionally `"<device>/<capability>"`.
    ///
    /// Must not panic. The engine reads it under its core lock while it
    /// records a completed leg, where a panic would end the thread driving
    /// the request (an event loop with every request on it). It is a name,
    /// not a computation: return a field.
    fn id(&self) -> &str;

    /// The capability this provider implements (e.g. `"read-temp-sensor"`).
    /// Must not panic, for the reason [`Provider::id`] gives.
    fn capability(&self) -> &str;

    /// Cost charged per started invocation (Assumption 2).
    fn cost(&self) -> f64;

    /// Synchronously executes the microservice.
    ///
    /// # Errors
    ///
    /// Returns an [`InvokeError`] when the execution fails or the device is
    /// unreachable.
    fn invoke(&self, request: &Invocation) -> Result<Vec<u8>, InvokeError>;

    /// Attempts to resolve this invocation as a *scheduled completion*: a
    /// `(latency, result)` pair the engine turns into a timer on `clock`
    /// instead of parking a thread in [`invoke`](Provider::invoke).
    ///
    /// Returning `Some` commits the invocation — the provider must apply
    /// exactly the side effects (counters, RNG draws) a blocking `invoke`
    /// would, because no `invoke` call follows. Return `None` whenever the
    /// outcome cannot be predicted up front (real I/O, capacity limits, or
    /// latency emulated on a different clock than `clock`); the engine
    /// then falls back to a blocking invocation on a worker thread. The
    /// default implementation always returns `None`.
    fn try_timed_invoke(
        &self,
        request: &Invocation,
        clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        let _ = (request, clock);
        None
    }
}

impl fmt::Debug for dyn Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Provider")
            .field("id", &self.id())
            .field("capability", &self.capability())
            .field("cost", &self.cost())
            .finish()
    }
}

/// Mutable runtime knobs of a [`SimulatedProvider`], shared so tests and
/// dynamic scenarios (Fig. 8) can change them mid-run.
#[derive(Debug)]
struct SimState {
    reliability: f64,
    latency: Duration,
    online: bool,
    rng: ChaCha8Rng,
    invocations: u64,
}

/// A provider that emulates a device-hosted microservice: sleeps for the
/// configured latency, then succeeds with the configured reliability.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::{Invocation, Provider, SimulatedProvider};
///
/// let p = SimulatedProvider::builder("pi/read-temp-sensor", "read-temp-sensor")
///     .latency(Duration::from_millis(2))
///     .reliability(1.0)
///     .cost(50.0)
///     .seed(7)
///     .build();
/// let out = p.invoke(&Invocation::new(1, "read-temp-sensor", vec![]));
/// assert!(out.is_ok());
/// ```
pub struct SimulatedProvider {
    id: String,
    capability: String,
    cost: f64,
    state: Mutex<SimState>,
    /// The clock that emulated latency sleeps on.
    clock: Arc<dyn Clock>,
    /// Optional payload returned on success.
    response: Vec<u8>,
    /// Maximum concurrent invocations (`None` = unlimited).
    capacity: Option<usize>,
    /// Currently running invocations.
    active: std::sync::atomic::AtomicUsize,
    /// Invocations rejected for being over capacity.
    rejected: std::sync::atomic::AtomicU64,
}

impl fmt::Debug for SimulatedProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulatedProvider")
            .field("id", &self.id)
            .field("capability", &self.capability)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

impl SimulatedProvider {
    /// Starts building a simulated provider with the given id and
    /// capability.
    #[must_use]
    pub fn builder(
        id: impl Into<String>,
        capability: impl Into<String>,
    ) -> SimulatedProviderBuilder {
        SimulatedProviderBuilder {
            id: id.into(),
            capability: capability.into(),
            cost: 1.0,
            reliability: 1.0,
            latency: Duration::from_millis(1),
            seed: 0,
            response: Vec::new(),
            capacity: None,
            clock: None,
        }
    }

    /// Changes the success probability (clamped into `[0, 1]`) — the knob
    /// the Fig. 8 adaptation experiment turns.
    pub fn set_reliability(&self, reliability: f64) {
        self.state.lock().reliability = reliability.clamp(0.0, 1.0);
    }

    /// Takes the device on- or off-line. Offline providers fail instantly
    /// with [`InvokeError::DeviceUnavailable`].
    pub fn set_online(&self, online: bool) {
        self.state.lock().online = online;
    }

    /// Changes the emulated execution latency.
    pub fn set_latency(&self, latency: Duration) {
        self.state.lock().latency = latency;
    }

    /// Number of invocations served so far (successful or not).
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.state.lock().invocations
    }

    /// Number of invocations rejected for exceeding the capacity limit.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Invocations currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.active.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// True when an invocation's outcome can be sampled up front and
    /// scheduled as a completion event on `clock`: the device has no
    /// capacity limit (capacity needs real in-flight accounting over time)
    /// and its emulated latency sleeps on `clock` itself.
    pub(crate) fn timed_eligible(&self, clock: &dyn Clock) -> bool {
        self.capacity.is_none() && crate::clock::same_clock(&*self.clock, clock)
    }

    /// Samples one invocation — counters, RNG draws, and all — returning
    /// how long it takes and how it ends. Both the blocking and the
    /// event-scheduled paths go through here, so they are
    /// behaviour-identical by construction.
    pub(crate) fn timed_sample(&self) -> (Duration, Result<Vec<u8>, InvokeError>) {
        let mut state = self.state.lock();
        state.invocations += 1;
        if !state.online {
            return (Duration::ZERO, Err(InvokeError::DeviceUnavailable));
        }
        let latency = state.latency;
        let reliability = state.reliability;
        let success = state.rng.gen_bool(reliability);
        let result = if success {
            Ok(self.response.clone())
        } else {
            Err(InvokeError::ExecutionFailed {
                reason: "simulated microservice failure".to_string(),
            })
        };
        (latency, result)
    }
}

/// Builder for [`SimulatedProvider`].
#[derive(Debug)]
pub struct SimulatedProviderBuilder {
    id: String,
    capability: String,
    cost: f64,
    reliability: f64,
    latency: Duration,
    seed: u64,
    response: Vec<u8>,
    capacity: Option<usize>,
    clock: Option<Arc<dyn Clock>>,
}

impl SimulatedProviderBuilder {
    /// Sets the per-invocation cost (default 1.0).
    #[must_use]
    pub fn cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the success probability (default 1.0).
    #[must_use]
    pub fn reliability(mut self, reliability: f64) -> Self {
        self.reliability = reliability.clamp(0.0, 1.0);
        self
    }

    /// Sets the emulated execution latency (default 1 ms).
    #[must_use]
    pub fn latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Seeds the provider's private RNG for reproducible behaviour
    /// (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the payload returned on success (default empty).
    #[must_use]
    pub fn response(mut self, payload: Vec<u8>) -> Self {
        self.response = payload;
        self
    }

    /// Limits the number of concurrent invocations the device serves;
    /// invocations beyond the limit fail immediately with
    /// [`InvokeError::Overloaded`]. Models the scarce, shared resources of
    /// the paper's Section VII scalability discussion (default: unlimited).
    #[must_use]
    pub fn capacity(mut self, limit: usize) -> Self {
        self.capacity = Some(limit);
        self
    }

    /// Sets the clock the emulated latency sleeps on (default: a fresh
    /// [`WallClock`]). Pass a shared
    /// [`VirtualClock`](crate::VirtualClock) for deterministic
    /// virtual-time simulation.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the provider, wrapped in an [`Arc`] ready for registration.
    #[must_use]
    pub fn build(self) -> Arc<SimulatedProvider> {
        Arc::new(SimulatedProvider {
            id: self.id,
            capability: self.capability,
            cost: self.cost,
            state: Mutex::new(SimState {
                reliability: self.reliability,
                latency: self.latency,
                online: true,
                rng: ChaCha8Rng::seed_from_u64(self.seed),
                invocations: 0,
            }),
            clock: self.clock.unwrap_or_else(|| Arc::new(WallClock::new())),
            response: self.response,
            capacity: self.capacity,
            active: std::sync::atomic::AtomicUsize::new(0),
            rejected: std::sync::atomic::AtomicU64::new(0),
        })
    }
}

impl Provider for SimulatedProvider {
    fn id(&self) -> &str {
        &self.id
    }

    fn capability(&self) -> &str {
        &self.capability
    }

    fn cost(&self) -> f64 {
        self.cost
    }

    fn invoke(&self, _request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        use std::sync::atomic::Ordering;
        // Admission control: reject immediately when at capacity.
        let _slot = if let Some(limit) = self.capacity {
            let mut current = self.active.load(Ordering::Acquire);
            loop {
                if current >= limit {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(InvokeError::Overloaded);
                }
                match self.active.compare_exchange_weak(
                    current,
                    current + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
            Some(SlotGuard {
                active: &self.active,
            })
        } else {
            None
        };
        // Sample behaviour under the lock, then sleep outside it so
        // concurrent invocations don't serialize. An offline device
        // samples a zero latency, so the sleep below is a no-op for it.
        let (sleep_for, result) = self.timed_sample();
        self.clock.sleep(sleep_for);
        result
    }

    fn try_timed_invoke(
        &self,
        _request: &Invocation,
        clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        if !self.timed_eligible(clock) {
            return None;
        }
        Some(self.timed_sample())
    }
}

/// A provider that runs an arbitrary closure — for microservices with real
/// logic (e.g. computing a temperature estimate from CPU readings).
///
/// # Examples
///
/// ```
/// use qce_runtime::{FnProvider, Invocation, Provider};
///
/// let p = FnProvider::new("m92p/est-temp", "est-temp", 50.0, |req| {
///     Ok(req.payload.iter().rev().copied().collect())
/// });
/// let out = p.invoke(&Invocation::new(1, "est-temp", vec![1, 2, 3])).unwrap();
/// assert_eq!(out, vec![3, 2, 1]);
/// ```
pub struct FnProvider<F> {
    id: String,
    capability: String,
    cost: f64,
    body: F,
}

impl<F> fmt::Debug for FnProvider<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnProvider")
            .field("id", &self.id)
            .field("capability", &self.capability)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

impl<F> FnProvider<F>
where
    F: Fn(&Invocation) -> Result<Vec<u8>, InvokeError> + Send + Sync,
{
    /// Creates a closure-backed provider.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        capability: impl Into<String>,
        cost: f64,
        body: F,
    ) -> Arc<Self> {
        Arc::new(FnProvider {
            id: id.into(),
            capability: capability.into(),
            cost,
            body,
        })
    }
}

impl<F> Provider for FnProvider<F>
where
    F: Fn(&Invocation) -> Result<Vec<u8>, InvokeError> + Send + Sync,
{
    fn id(&self) -> &str {
        &self.id
    }

    fn capability(&self) -> &str {
        &self.capability
    }

    fn cost(&self) -> f64 {
        self.cost
    }

    fn invoke(&self, request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        (self.body)(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    #[test]
    fn simulated_provider_succeeds_and_fails_by_reliability() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::ZERO)
            .reliability(0.5)
            .seed(3)
            .build();
        let req = Invocation::new(0, "cap", vec![]);
        let n = 2000;
        let ok = (0..n).filter(|_| p.invoke(&req).is_ok()).count();
        let rate = ok as f64 / f64::from(n);
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
        assert_eq!(p.invocations(), 2000);
    }

    #[test]
    fn simulated_provider_sleeps_for_latency() {
        let clock = Arc::new(VirtualClock::new());
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(20))
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        p.invoke(&Invocation::new(0, "cap", vec![])).unwrap();
        assert_eq!(clock.now(), Duration::from_millis(20));
    }

    #[test]
    fn offline_provider_fails_fast() {
        let clock = Arc::new(VirtualClock::new());
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_secs(10))
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        p.set_online(false);
        let err = p.invoke(&Invocation::new(0, "cap", vec![])).unwrap_err();
        assert_eq!(err, InvokeError::DeviceUnavailable);
        assert_eq!(clock.now(), Duration::ZERO, "offline failure never sleeps");
        p.set_online(true);
        assert!(p.invoke(&Invocation::new(0, "cap", vec![])).is_ok());
        assert_eq!(clock.now(), Duration::from_secs(10));
    }

    #[test]
    fn reliability_can_change_at_runtime() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::ZERO)
            .reliability(1.0)
            .build();
        let req = Invocation::new(0, "cap", vec![]);
        assert!(p.invoke(&req).is_ok());
        p.set_reliability(0.0);
        assert!(p.invoke(&req).is_err());
    }

    #[test]
    fn latency_can_change_at_runtime() {
        let clock = Arc::new(VirtualClock::new());
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::ZERO)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        p.set_latency(Duration::from_millis(15));
        p.invoke(&Invocation::new(0, "cap", vec![])).unwrap();
        assert_eq!(clock.now(), Duration::from_millis(15));
    }

    #[test]
    fn builder_sets_response_and_metadata() {
        let p = SimulatedProvider::builder("dev/x", "x")
            .cost(42.0)
            .response(vec![7])
            .latency(Duration::ZERO)
            .build();
        assert_eq!(p.id(), "dev/x");
        assert_eq!(p.capability(), "x");
        assert_eq!(p.cost(), 42.0);
        assert_eq!(p.invoke(&Invocation::new(0, "x", vec![])).unwrap(), vec![7]);
    }

    #[test]
    fn fn_provider_runs_closure() {
        let p = FnProvider::new("d/sum", "sum", 1.0, |req| {
            Ok(vec![req.payload.iter().sum::<u8>()])
        });
        let out = p.invoke(&Invocation::new(0, "sum", vec![1, 2, 3])).unwrap();
        assert_eq!(out, vec![6]);
        assert_eq!(p.capability(), "sum");
    }

    #[test]
    fn provider_trait_object_debug() {
        let p = SimulatedProvider::builder("d/cap", "cap").build();
        let obj: Arc<dyn Provider> = p;
        let text = format!("{obj:?}");
        assert!(text.contains("d/cap"));
    }

    #[test]
    fn providers_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimulatedProvider>();
        assert_send_sync::<Arc<dyn Provider>>();
    }

    #[test]
    fn timed_invoke_matches_blocking_invoke() {
        // Two identically seeded providers must produce the same stream of
        // (latency, result) pairs whether sampled or invoked.
        let make = || {
            let clock = Arc::new(VirtualClock::new());
            let p = SimulatedProvider::builder("d/cap", "cap")
                .latency(Duration::from_millis(6))
                .reliability(0.5)
                .seed(11)
                .response(vec![9])
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build();
            (clock, p)
        };
        let (timed_clock, timed) = make();
        let (block_clock, blocking) = make();
        let req = Invocation::new(0, "cap", vec![]);
        for _ in 0..32 {
            let (latency, result) = timed
                .try_timed_invoke(&req, &*timed_clock)
                .expect("uncapped provider on its own clock is timed-eligible");
            let t0 = block_clock.now();
            let blocked = blocking.invoke(&req);
            assert_eq!(block_clock.now() - t0, latency);
            assert_eq!(blocked, result);
        }
        assert_eq!(timed.invocations(), blocking.invocations());
    }

    #[test]
    fn timed_invoke_declines_foreign_clocks_and_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let other: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let p = SimulatedProvider::builder("d/cap", "cap")
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        let req = Invocation::new(0, "cap", vec![]);
        assert!(
            p.try_timed_invoke(&req, &*other).is_none(),
            "latency sleeps on a different clock: outcome is not schedulable"
        );
        assert_eq!(p.invocations(), 0, "a declined probe has no side effects");
        let capped = SimulatedProvider::builder("d/cap", "cap")
            .capacity(1)
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        assert!(
            capped.try_timed_invoke(&req, &*clock).is_none(),
            "capacity limits need real in-flight accounting"
        );
    }
}

/// RAII guard releasing a capacity slot when the invocation completes.
struct SlotGuard<'a> {
    active: &'a std::sync::atomic::AtomicUsize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.active
            .fetch_sub(1, std::sync::atomic::Ordering::AcqRel);
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(10))
            .build();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    assert!(p.invoke(&Invocation::new(0, "cap", vec![])).is_ok());
                });
            }
        });
        assert_eq!(p.rejected(), 0);
    }

    #[test]
    fn capacity_one_rejects_concurrent_invocations() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(40))
            .capacity(1)
            .build();
        let results: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = Arc::clone(&p);
                    scope.spawn(move || p.invoke(&Invocation::new(0, "cap", vec![])).is_ok())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let ok = results.iter().filter(|&&r| r).count();
        assert_eq!(ok, 1, "exactly one invocation should win the single slot");
        assert_eq!(p.rejected(), 3);
        assert_eq!(p.in_flight(), 0, "slot released after completion");
    }

    #[test]
    fn capacity_slot_released_after_each_invocation() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::ZERO)
            .capacity(1)
            .build();
        let req = Invocation::new(0, "cap", vec![]);
        for _ in 0..5 {
            assert!(p.invoke(&req).is_ok(), "sequential invocations all fit");
        }
        assert_eq!(p.rejected(), 0);
    }

    #[test]
    fn overloaded_failure_is_instant_and_distinct() {
        let wall = WallClock::new();
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(50))
            .capacity(1)
            .build();
        let p2 = Arc::clone(&p);
        let handle = std::thread::spawn(move || p2.invoke(&Invocation::new(0, "cap", vec![])));
        // Wait for the first invocation to claim the single slot.
        while p.in_flight() == 0 {
            std::thread::yield_now();
        }
        let t0 = wall.now();
        let err = p.invoke(&Invocation::new(1, "cap", vec![])).unwrap_err();
        assert_eq!(err, InvokeError::Overloaded);
        assert!(
            wall.now() - t0 < Duration::from_millis(20),
            "rejection is instant"
        );
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn slot_released_even_when_offline() {
        let p = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::ZERO)
            .capacity(1)
            .build();
        p.set_online(false);
        let req = Invocation::new(0, "cap", vec![]);
        assert_eq!(p.invoke(&req).unwrap_err(), InvokeError::DeviceUnavailable);
        assert_eq!(p.in_flight(), 0, "early return must release the slot");
        p.set_online(true);
        assert!(p.invoke(&req).is_ok());
    }
}
