//! The asynchronous side of a request: the [`RequestHandle`] a submitter
//! holds, the [`HandleState`] machine it waits on and the shell the event
//! loop resolves it through.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard, PoisonError};
use std::task::{Wake, Waker};
use std::thread::Thread;

use crate::clock::Clock;
use crate::engine::event::RequestResult;
use crate::engine::EngineOutcome;
use crate::message::RuntimeError;
use crate::request::QosClass;

use super::ServiceResponse;

/// What an asynchronous request resolved to, kept in its handle until the
/// submitter collects it: its response or error, or the panic of a
/// provider or of its preparation, resumed on the collecting thread.
// Boxed: a `ServiceResponse` dwarfs the panic payload, and the handle holds
// the result until the submitter collects it.
pub(super) type HandleResult = std::thread::Result<Box<Result<ServiceResponse, RuntimeError>>>;

/// The thread parked in [`RequestHandle::wait`], and whether it went
/// passive on the handle's clock to park.
struct Waiter {
    thread: Thread,
    passive: bool,
}

/// A handle's life as a pure machine, split the way the admission gate
/// and the event core are: each step changes the state and returns what
/// it leaves [`HandleShared`], the shell, to do. `R` is the result and `W`
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

/// The shell of a [`HandleState`], shared between a [`RequestHandle`] and
/// the side that resolves it. A resolve that finds the submitter parked
/// *returns* the wake-up instead of sending it: a [`Waker`] whose `wake`
/// hands the waiter its passive mark back and unparks it. The event loops
/// hold those until the end of the clock instant (DESIGN §15); every other
/// resolve wakes at once.
pub(super) struct HandleShared {
    clock: Arc<dyn Clock>,
    state: StdMutex<HandleState<HandleResult, Waiter>>,
    /// Set once the result may be collected: by the resolve when nobody is
    /// parked, else by the wake. `try_wait` and `wait`'s fast path read it
    /// without the lock. Stored `Release` after the result (and after the
    /// wake cleared the waiter's passive mark), loaded `Acquire` before
    /// the result is collected.
    done: AtomicBool,
}

impl HandleShared {
    pub(super) fn new(clock: Arc<dyn Clock>) -> Self {
        HandleShared {
            clock,
            state: StdMutex::new(HandleState::Pending),
            done: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HandleState<HandleResult, Waiter>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves the handle and wakes a parked waiter at once: for resolves
    /// that do not run on an event loop's turn.
    pub(super) fn finish(self: &Arc<Self>, result: HandleResult) {
        if let Some(waiter) = self.resolve(result) {
            waiter.wake();
        }
    }

    /// [`HandleState::resolve`], returning the wake-up it owes.
    fn resolve(self: &Arc<Self>, result: HandleResult) -> Option<Waker> {
        match self.lock().resolve(result) {
            Resolved::Ready => self.done.store(true, Ordering::Release),
            Resolved::Owed => return Some(Waker::from(Arc::clone(self))),
            Resolved::Lost => {}
        }
        None
    }

    /// Takes the result out of a resolved handle, resuming a panic on the
    /// collecting thread.
    fn collect(&self) -> Result<ServiceResponse, RuntimeError> {
        let result = self.lock().collect();
        *result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Wake for HandleShared {
    /// The wake a resolve returned. A waiter that went passive on the
    /// clock gets its mark back *before* it is unparked: the waker is about
    /// to idle on the same clock, and a waiter still counted passive would
    /// let that idle wait jump virtual time past it before it ran (the
    /// waker-to-waiter handoff of DESIGN §8, the rule a finished blocking
    /// leg's orphaned slot follows).
    fn wake(self: Arc<Self>) {
        let waiter = self.lock().wake();
        if waiter.passive {
            self.clock.exit_passive();
        }
        self.done.store(true, Ordering::Release);
        waiter.thread.unpark();
    }
}

/// Guards an asynchronous request's handle against being orphaned: drops
/// on any path that forgets to resolve the handle (a continuation discarded
/// by a shutting-down core, a panic between admission and submission) fail
/// it with [`RuntimeError::Shutdown`] so [`RequestHandle::wait`] can never
/// park forever. Resolving through the guard disarms it.
pub(super) struct FinishGuard(Option<Arc<HandleShared>>);

impl FinishGuard {
    pub(super) fn new(shared: &Arc<HandleShared>) -> Self {
        FinishGuard(Some(Arc::clone(shared)))
    }

    /// See [`HandleShared::finish`].
    pub(super) fn finish(mut self, result: HandleResult) {
        if let Some(shared) = self.0.take() {
            shared.finish(result);
        }
    }

    /// Resolves the handle with what the engine reported for its request
    /// (`respond` assembles a finished one) and returns the wake-up owed to
    /// its waiter, for the event loop to send at the end of the instant.
    pub(super) fn resolve(
        mut self,
        result: RequestResult,
        respond: impl FnOnce(EngineOutcome) -> ServiceResponse,
    ) -> Option<Waker> {
        self.0.take()?.resolve(match result {
            RequestResult::Finished(outcome) => Ok(Box::new(Ok(respond(outcome)))),
            RequestResult::Panicked(panic) => Err(panic),
            RequestResult::Shutdown => Ok(Box::new(Err(RuntimeError::Shutdown))),
        })
    }
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        if let Some(shared) = self.0.take() {
            shared.finish(Ok(Box::new(Err(RuntimeError::Shutdown))));
        }
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
    pub(super) shared: Arc<HandleShared>,
}

impl std::fmt::Debug for HandleShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleShared").finish_non_exhaustive()
    }
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
            Ok(self.shared.collect())
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
    /// passive for the duration of the wait (exactly as a queued blocking
    /// submit would be), so waiting on a handle never stalls the virtual
    /// time its own request needs to complete. The wake hands the mark
    /// back: it is cleared before the caller is unparked, so the resolving
    /// loop's next idle wait cannot move virtual time past the resolve
    /// instant before the caller has run.
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
        let shared = &*self.shared;
        if !shared.done.load(Ordering::Acquire) {
            let passive = shared.clock.thread_is_worker();
            let thread = std::thread::current();
            let mut state = shared.lock();
            if state.park(Waiter { thread, passive }) {
                // Passive under the lock, so the wake that clears the mark
                // always finds it set.
                if passive {
                    shared.clock.enter_passive();
                }
                drop(state);
                while !shared.done.load(Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
        shared.collect()
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

    fn shared() -> Arc<HandleShared> {
        Arc::new(HandleShared::new(Arc::new(WallClock::new())))
    }

    fn handle(shared: &Arc<HandleShared>) -> RequestHandle {
        RequestHandle {
            request_id: 1,
            class: QosClass::default(),
            shared: Arc::clone(shared),
        }
    }

    fn overloaded() -> RuntimeError {
        RuntimeError::Overloaded {
            service_id: "svc".into(),
            class: QosClass::default(),
            queue_depth: 3,
        }
    }

    /// Spins (yielding) until a thread is parked in `wait` on `shared`.
    fn await_parked(shared: &HandleShared) {
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
        FinishGuard::new(&shared).finish(Ok(Box::new(Err(overloaded()))));
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
        let guard = FinishGuard::new(&shared);
        let wake = guard.resolve(RequestResult::Shutdown, |_| unreachable!("not finished"));
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
        FinishGuard::new(&shared).finish(Ok(Box::new(Err(overloaded()))));
        assert_eq!(pending.try_wait().ok(), Some(Err(overloaded())));
    }

    /// An orphaned guard's `Shutdown` races a real resolve with the waiter
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
            let (resolved, orphan) = (FinishGuard::new(&shared), FinishGuard::new(&shared));
            let wake = std::thread::scope(|scope| {
                let dropper = scope.spawn(|| {
                    start.wait();
                    drop(orphan);
                });
                start.wait();
                let wake = resolved.resolve(RequestResult::Shutdown, |_| unreachable!());
                dropper.join().unwrap();
                wake.map(|wake| (wake, shared.done.load(Ordering::Acquire)))
            });
            let outcome = match wake {
                Some((wake, done)) => {
                    assert!(!done, "the losing guard sent a wake too");
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

    /// A gateway serving one-leg `services` on `clock`, every request in
    /// one slot; the leg of `svc` is whatever registers for `svc-cap`.
    fn gateway(clock: &Arc<VirtualClock>, services: &[&str]) -> Arc<Gateway> {
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
            GatewayConfig::default(),
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
        let gateway = gateway(&clock, &["svc"]);
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
        let gateway = gateway(&clock, &["blocking", "timed"]);
        gateway
            .registry()
            .register(FnProvider::new("blocking-dev", "blocking-cap", 1.0, |_| {
                std::thread::sleep(Duration::from_micros(100));
                Ok(vec![1])
            }));
        gateway.registry().register(timed(&clock, "timed", 5));
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
}
