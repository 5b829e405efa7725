//! The one way a thread waits on another for a one-shot result: the
//! [`Handoff`] shell around the [`HandleState`] machine. A [`RequestHandle`]
//! waits on one for its request's `Flight`, and a queued blocking `submit`
//! for its admission outcome (`AdmissionGate::admit_blocking`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard, PoisonError};
use std::task::{Wake, Waker};
use std::thread::Thread;

use crate::clock::Clock;
use crate::message::RuntimeError;
use crate::request::QosClass;

use super::{Flight, ServiceResponse};

/// What an asynchronous request resolved to, kept in its handle until the
/// submitter collects it: the request's own [`Flight`], carrying its
/// response or error, or the panic of a provider or of its preparation,
/// resumed on the collecting thread. A box, not the result: the handle
/// stays small, and the thread that collects the result frees the box it
/// allocated.
pub(super) type HandleResult = Box<Flight>;

/// The thread parked in [`Handoff::wait`], and whether it went passive on
/// the handoff's clock to park.
struct Waiter {
    thread: Thread,
    passive: bool,
}

/// A handle's life as a pure machine, split the way the admission gate
/// and the event core are: each step changes the state and returns what
/// it leaves [`Handoff`], the shell, to do. `R` is the result and `W`
/// who waits on it; a result before the resolve and a waiter after the
/// collect are not states. `Parked` holds the submitter parked on an
/// unresolved handle, `Owed` a result whose wake that submitter is owed.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
pub(super) enum HandleState<R, W> {
    Pending,
    Parked(W),
    Owed(R, W),
    Ready(R),
    Collected,
}

/// What a resolve leaves the shell to do: mark the result collectable,
/// hand out the wake owed to the parked waiter, or nothing (an earlier
/// resolve won).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(super) enum Resolved {
    Ready,
    Owed,
    Lost,
}

impl<R, W> HandleState<R, W> {
    /// Stores `result` unless the handle is resolved already: the first
    /// resolve wins (a shutdown guard racing a preemption result).
    pub(super) fn resolve(&mut self, result: R) -> Resolved {
        let (state, resolved) = match std::mem::replace(self, HandleState::Collected) {
            HandleState::Pending => (HandleState::Ready(result), Resolved::Ready),
            HandleState::Parked(waiter) => (HandleState::Owed(result, waiter), Resolved::Owed),
            resolved => (resolved, Resolved::Lost),
        };
        *self = state;
        resolved
    }

    /// Parks `waiter` on an unresolved handle; `false` when the result is
    /// ready already.
    pub(super) fn park(&mut self, waiter: W) -> bool {
        let pending = matches!(self, HandleState::Pending);
        if pending {
            *self = HandleState::Parked(waiter);
        }
        pending
    }

    /// Sends the wake a resolve owed: the result becomes collectable and
    /// the waiter comes back, with its passive mark, to be unparked.
    pub(super) fn wake(&mut self) -> W {
        match std::mem::replace(self, HandleState::Collected) {
            HandleState::Owed(result, waiter) => {
                *self = HandleState::Ready(result);
                waiter
            }
            _ => unreachable!("only a resolve that found a waiter owes a wake"),
        }
    }

    /// Takes the result out of a ready handle.
    pub(super) fn collect(&mut self) -> R {
        match std::mem::replace(self, HandleState::Collected) {
            HandleState::Ready(result) => result,
            _ => unreachable!("a handle is collected once, after it is ready"),
        }
    }
}

/// The shell of a [`HandleState`]: a one-shot result `R` that one side
/// resolves and one thread waits for. A resolve that finds the waiter
/// parked *returns* the wake-up instead of sending it: a [`Waker`] whose
/// `wake` hands the waiter its passive mark back and unparks it. The event
/// loops hold a request's wake until the end of the clock instant (DESIGN
/// §15); every other resolve wakes at once ([`Handoff::finish`]).
pub(super) struct Handoff<R> {
    clock: Arc<dyn Clock>,
    state: StdMutex<HandleState<R, Waiter>>,
    /// Set once the result may be collected: by the resolve when nobody is
    /// parked, else by the wake. `try_wait` and `wait`'s fast path read it
    /// without the lock. Stored `Release` after the result (and after the
    /// wake cleared the waiter's passive mark), loaded `Acquire` before
    /// the result is collected.
    done: AtomicBool,
}

impl<R: Send + 'static> Handoff<R> {
    pub(super) fn new(clock: Arc<dyn Clock>) -> Self {
        Handoff {
            clock,
            state: StdMutex::new(HandleState::Pending),
            done: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HandleState<R, Waiter>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves the handoff and wakes a parked waiter at once: for
    /// resolves that do not run on an event loop's turn.
    pub(super) fn finish(self: &Arc<Self>, result: R) {
        if let Some(waiter) = self.resolve(result) {
            waiter.wake();
        }
    }

    /// [`HandleState::resolve`], returning the wake-up it owes.
    pub(super) fn resolve(self: &Arc<Self>, result: R) -> Option<Waker> {
        match self.lock().resolve(result) {
            Resolved::Ready => self.done.store(true, Ordering::Release),
            Resolved::Owed => return Some(Waker::from(Arc::clone(self))),
            Resolved::Lost => {}
        }
        None
    }

    /// Parks until the handoff resolves and takes its result. A caller
    /// registered as a worker of the clock is marked passive while it is
    /// parked, so the wait never stalls the virtual time its own result
    /// needs; the wake clears the mark before it unparks the caller.
    pub(super) fn wait(&self) -> R {
        if !self.done.load(Ordering::Acquire) {
            let passive = self.clock.thread_is_worker();
            let thread = std::thread::current();
            let mut state = self.lock();
            if state.park(Waiter { thread, passive }) {
                // Passive under the lock, so the wake that clears the mark
                // always finds it set.
                if passive {
                    self.clock.enter_passive();
                }
                drop(state);
                while !self.done.load(Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
        self.lock().collect()
    }
}

impl<R: Send + 'static> Wake for Handoff<R> {
    /// The wake a resolve returned. A waiter that went passive on the
    /// clock gets its mark back *before* it is unparked: the waker may be
    /// about to idle on the same clock, and a waiter still counted passive
    /// would let that idle wait jump virtual time past it before it ran
    /// (the waker-to-waiter handoff of DESIGN §8, the rule a finished
    /// blocking leg's orphaned slot follows).
    fn wake(self: Arc<Self>) {
        let waiter = self.lock().wake();
        if waiter.passive {
            self.clock.exit_passive();
        }
        self.done.store(true, Ordering::Release);
        waiter.thread.unpark();
    }
}

impl<R> std::fmt::Debug for Handoff<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handoff").finish_non_exhaustive()
    }
}

/// A pending asynchronous request, returned by
/// [`Gateway::submit_async`](super::Gateway::submit_async).
///
/// The handle is detached from the request's execution: dropping it does
/// not cancel the request (its deadline and admission bounds still
/// apply).
#[derive(Debug)]
pub struct RequestHandle {
    pub(super) request_id: u64,
    pub(super) class: QosClass,
    pub(super) shared: Arc<Handoff<HandleResult>>,
}

impl RequestHandle {
    /// The request id the response will carry.
    #[must_use]
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The traffic class the request was admitted under.
    #[must_use]
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Returns the resolved response without blocking, or the handle back
    /// if the request is still pending.
    ///
    /// # Errors
    ///
    /// As [`RequestHandle::wait`], once resolved.
    pub fn try_wait(self) -> Result<Result<ServiceResponse, RuntimeError>, Self> {
        if self.shared.done.load(Ordering::Acquire) {
            Ok(self.shared.lock().collect().into_result())
        } else {
            Err(self)
        }
    }

    /// Parks until the request resolves and returns its response.
    ///
    /// A request the event loop resolves wakes its waiter no later than
    /// the end of the clock instant it resolved at: the loop hands out the
    /// wake-ups of one instant together, before it idles or once its clock
    /// has moved on, so a client waiting on a window of requests is woken
    /// once per instant rather than once per request. On a
    /// [`WallClock`](crate::WallClock) nearly every loop turn is a new
    /// instant.
    ///
    /// A caller registered as a worker of the gateway's clock is marked
    /// passive for the duration of the wait, so waiting on a handle never
    /// stalls the virtual time its own request needs to complete. The wake
    /// hands the mark back: it is cleared before the caller is unparked,
    /// so the resolving loop's next idle wait cannot move virtual time past
    /// the resolve instant before the caller has run. A queued blocking
    /// submit waits for its admission the same way, through the same code.
    ///
    /// If a provider panicked during the request, or the market, a
    /// provider or the planner panicked while the loop prepared it, the
    /// panic resumes here (and in [`RequestHandle::try_wait`]), on the
    /// thread that collects the result — the event loop itself is never
    /// poisoned and keeps serving.
    ///
    /// # Errors
    ///
    /// Any error [`Gateway::submit`](super::Gateway::submit) can return, plus
    /// [`RuntimeError::Shutdown`] when the gateway was dropped before the
    /// request resolved and [`RuntimeError::DeadlineExceeded`] when the
    /// deadline expired while the request was still queued.
    pub fn wait(self) -> Result<ServiceResponse, RuntimeError> {
        self.shared.wait().into_result()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::{
        FnProvider, Gateway, GatewayConfig, InMemoryMarket, MsSpec, Request, ServiceScript,
        SimulatedProvider, VirtualClock, WallClock, WorkerGuard,
    };
    use qce_strategy::{Qos, Requirements};

    fn shared() -> Arc<Handoff<HandleResult>> {
        Arc::new(Handoff::new(Arc::new(WallClock::new())))
    }

    fn handle(shared: &Arc<Handoff<HandleResult>>) -> RequestHandle {
        RequestHandle {
            request_id: 1,
            class: QosClass::default(),
            shared: Arc::clone(shared),
        }
    }

    /// A flight on its way to resolving `shared`.
    fn flight(shared: &Arc<Handoff<HandleResult>>) -> Box<Flight> {
        Box::new(Flight {
            handle: Some(Arc::clone(shared)),
            stage: super::super::Stage::Moved,
        })
    }

    fn overloaded() -> RuntimeError {
        RuntimeError::Overloaded {
            service_id: "svc".into(),
            class: QosClass::default(),
            queue_depth: 3,
        }
    }

    /// Spins (yielding) until a thread is parked in `wait` on `shared`.
    fn await_parked(shared: &Handoff<HandleResult>) {
        let start = Instant::now();
        while !matches!(*shared.lock(), HandleState::Parked(_)) {
            assert!(start.elapsed() < Duration::from_secs(20), "never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_resolve_before_wait_is_collected_without_parking() {
        let shared = shared();
        let waiting = handle(&shared);
        shared.finish(Flight::resolved(Err(overloaded())));
        assert!(shared.done.load(Ordering::Acquire), "nobody to wake");
        assert_eq!(waiting.wait(), Err(overloaded()));
        assert!(
            matches!(*shared.lock(), HandleState::Collected),
            "the waiter never parked"
        );
    }

    /// The resolve returns the wake instead of sending it: the waiter stays
    /// parked until whoever holds the wake sends it.
    #[test]
    fn a_waiter_parked_before_the_resolve_wakes_only_when_woken() {
        let shared = shared();
        let waiting = handle(&shared);
        let waiter = std::thread::spawn(move || waiting.wait());
        await_parked(&shared);
        let wake = shared.resolve(Flight::resolved(Err(RuntimeError::Shutdown)));
        let wake = wake.expect("a parked waiter is owed a wake");
        // The waiter returns only once `done` is set, which is the wake's.
        assert!(
            !shared.done.load(Ordering::Acquire),
            "resolved, not yet woken"
        );
        wake.wake();
        assert_eq!(waiter.join().unwrap(), Err(RuntimeError::Shutdown));
    }

    #[test]
    fn try_wait_returns_the_handle_until_resolved() {
        let shared = shared();
        let pending = handle(&shared).try_wait().expect_err("unresolved");
        shared.finish(Flight::resolved(Err(overloaded())));
        assert_eq!(pending.try_wait().ok(), Some(Err(overloaded())));
    }

    /// An orphaned flight's `Shutdown` races a real resolve with the waiter
    /// parked: the first wins, and only its side holds a wake.
    #[test]
    fn a_guard_drop_racing_a_resolve_wakes_once_and_the_first_wins() {
        let mut won = [0u32; 2];
        for _ in 0..500 {
            let shared = shared();
            let waiting = handle(&shared);
            let waiter = std::thread::spawn(move || waiting.wait());
            await_parked(&shared);
            let start = Barrier::new(2);
            let (resolved, orphan) = (flight(&shared), flight(&shared));
            let wake = std::thread::scope(|scope| {
                let dropper = scope.spawn(|| {
                    start.wait();
                    drop(orphan);
                });
                start.wait();
                let wake = resolved.resolve(Ok(Err(RuntimeError::Shutdown)));
                dropper.join().unwrap();
                wake.map(|wake| (wake, shared.done.load(Ordering::Acquire)))
            });
            let outcome = match wake {
                Some((wake, done)) => {
                    assert!(!done, "the losing flight sent a wake too");
                    wake.wake();
                    won[0] += 1;
                    waiter.join().unwrap()
                }
                None => {
                    won[1] += 1;
                    waiter.join().unwrap()
                }
            };
            assert_eq!(outcome, Err(RuntimeError::Shutdown));
            assert!(matches!(*shared.lock(), HandleState::Collected));
        }
        assert_eq!(won[0] + won[1], 500, "{won:?}");
    }

    /// A gateway serving `blocking`, whose leg blocks on the worker pool
    /// for 100 µs of real time and no virtual time, and `timed`, a 5 ms
    /// timer on `clock`.
    fn blocking_and_timed(clock: &Arc<VirtualClock>, config: GatewayConfig) -> Arc<Gateway> {
        let gateway = gateway(clock, &["blocking", "timed"], config);
        gateway
            .registry()
            .register(FnProvider::new("blocking-dev", "blocking-cap", 1.0, |_| {
                std::thread::sleep(Duration::from_micros(100));
                Ok(vec![1])
            }));
        gateway.registry().register(timed(clock, "timed", 5));
        gateway
    }

    /// A gateway serving one-leg `services` on `clock`, every request in
    /// one slot; the leg of `svc` is whatever registers for `svc-cap`.
    fn gateway(
        clock: &Arc<VirtualClock>,
        services: &[&str],
        config: GatewayConfig,
    ) -> Arc<Gateway> {
        let market = InMemoryMarket::new();
        for service in services {
            let mut script = ServiceScript::new(
                *service,
                vec![MsSpec {
                    name: "a".into(),
                    capability: format!("{service}-cap"),
                    prior: Qos::new(10.0, 1.0, 0.9).unwrap(),
                }],
                Requirements::new(1000.0, 1000.0, 0.5).unwrap(),
            );
            script.slot_size = 1 << 30;
            market.publish(script).unwrap();
        }
        Arc::new(Gateway::with_clock(
            Box::new(market),
            config,
            Arc::clone(clock) as Arc<dyn Clock>,
        ))
    }

    /// A leg of `ms` virtual milliseconds for `service`, a clock event.
    fn timed(clock: &Arc<VirtualClock>, service: &str, ms: u64) -> Arc<SimulatedProvider> {
        SimulatedProvider::builder(format!("{service}-dev"), format!("{service}-cap"))
            .latency(Duration::from_millis(ms))
            .reliability(1.0)
            .clock(Arc::clone(clock) as Arc<dyn Clock>)
            .build()
    }

    #[test]
    fn dropping_the_gateway_under_a_parked_waiter_resolves_shutdown() {
        let clock = Arc::new(VirtualClock::new());
        let gateway = gateway(&clock, &["svc"], GatewayConfig::default());
        gateway.registry().register(timed(&clock, "svc", 10));
        // Registered and running, this thread holds virtual time at zero:
        // the request's 10 ms leg cannot complete.
        let pin = WorkerGuard::enter(&*clock);
        let waiting = gateway.submit_async(Request::new("svc")).unwrap();
        let shared = Arc::clone(&waiting.shared);
        let waiter = std::thread::spawn(move || waiting.wait());
        await_parked(&shared);
        drop(gateway);
        assert_eq!(waiter.join().unwrap(), Err(RuntimeError::Shutdown));
        assert_eq!(clock.now(), Duration::ZERO);
        drop(pin);
    }

    /// The handoff: a registered waiter is woken right before the loop
    /// idles to a later timer, and that idle wait must not jump virtual
    /// time past the waiter before it has run — so it reads its request's
    /// resolve instant, every time. The first request's leg blocks on the
    /// worker pool for a little real time, so the waiter is fast asleep
    /// when its wake comes and the loop reaches its idle wait first.
    #[test]
    fn a_registered_waiter_reads_its_resolve_instant_while_a_later_timer_waits() {
        let clock = Arc::new(VirtualClock::new());
        let gateway = blocking_and_timed(&clock, GatewayConfig::default());
        let _worker = WorkerGuard::enter(&*clock);
        let mut late = Vec::new();
        for round in 0..1_000 {
            let t0 = clock.now();
            let blocking = gateway.submit_async(Request::new("blocking")).unwrap();
            let timed = gateway.submit_async(Request::new("timed")).unwrap();
            assert!(blocking.wait().unwrap().success);
            if clock.now() != t0 {
                late.push((round, clock.now() - t0));
            }
            assert!(timed.wait().unwrap().success);
            assert_eq!(clock.now(), t0 + Duration::from_millis(5));
        }
        assert!(late.is_empty(), "read past the resolve instant: {late:?}");
    }

    /// The same handoff for a queued blocking `submit`: a registered
    /// client queued at an in-flight limit of one behind a request whose
    /// leg blocks on the worker pool is asleep when its grant comes, and
    /// the granting loop then idles to a later timer. That idle wait must
    /// not jump virtual time past the client before it has run, so the
    /// client's request starts, and ends, at its grant instant every time.
    #[test]
    fn a_queued_blocking_submit_reads_its_grant_instant_while_a_later_timer_waits() {
        let clock = Arc::new(VirtualClock::new());
        let config = GatewayConfig::builder().max_in_flight(1).build();
        let gateway = blocking_and_timed(&clock, config);
        let _worker = WorkerGuard::enter(&*clock);
        let mut late = Vec::new();
        for round in 0..1_000 {
            let t0 = clock.now();
            let first = gateway.submit_async(Request::new("blocking")).unwrap();
            let timed = gateway.submit_async(Request::new("timed")).unwrap();
            // Queued behind `first`, granted when its leg is done, at `t0`.
            assert!(gateway.submit(Request::new("blocking")).unwrap().success);
            if clock.now() != t0 {
                late.push((round, clock.now() - t0));
            }
            assert!(first.wait().unwrap().success);
            assert!(timed.wait().unwrap().success);
            assert_eq!(clock.now(), t0 + Duration::from_millis(5));
        }
        let snapshot = gateway.telemetry().snapshot();
        let queued = snapshot.service("blocking").unwrap().admission_queue_peak;
        assert_eq!(queued, 1, "the blocking submit never queued");
        assert!(
            late.is_empty(),
            "{} of 1 000 rounds read past the grant instant, first {:?}",
            late.len(),
            late[0]
        );
    }
}
