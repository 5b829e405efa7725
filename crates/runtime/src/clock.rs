//! Time as a capability: every component that waits or timestamps does so
//! through a [`Clock`], so the whole runtime can run on either real time
//! ([`WallClock`]) or deterministic simulated time ([`VirtualClock`]).
//!
//! The virtual clock makes the test suite both *fast* (no real sleeping:
//! a 500 ms simulated latency costs microseconds) and *deterministic*
//! (latency assertions are exact equalities, not fuzzy bounds).
//!
//! # The advance protocol
//!
//! [`VirtualClock`] coordinates real OS threads over simulated time. It
//! tracks, per clock:
//!
//! * **workers** — threads currently doing runtime work. Registration is
//!   *thread-bound*: a worker slot is reserved with
//!   [`Clock::reserve_worker`] (or [`Clock::enter_worker`]) and bound to
//!   an OS thread with [`Clock::adopt_worker`], so the clock knows which
//!   threads count as workers.
//! * **worker sleepers** — registered worker threads blocked in
//!   [`Clock::sleep`]. Sleeps from *unregistered* threads (a market
//!   fetch on a caller thread, a test poking a provider directly) are
//!   tracked only for their deadlines and never count toward the advance
//!   threshold, so virtual time cannot jump while a registered worker is
//!   still computing just because some bystander thread went to sleep.
//! * **parked** — workers blocked in a *passive* wait (joining spawned
//!   children), which make no progress on their own.
//!
//! Virtual time advances — jumping straight to the earliest sleeping
//! deadline (registered or not) — exactly when no worker can make
//! progress: at least one sleeper exists and
//! `worker_sleepers + parked >= workers`. A thread that sleeps while no
//! workers are registered advances time immediately.
//!
//! Registered workers must never block outside [`Clock::sleep`] without
//! bracketing the wait in [`Clock::enter_passive`]/[`Clock::exit_passive`],
//! or virtual time stalls and every sleeper deadlocks. Use [`WorkerGuard`]
//! rather than calling `enter_worker`/`exit_worker` by hand: it
//! deregisters on drop, so a panicking provider cannot leak the worker
//! count and hang every later sleeper.
//!
//! A parked parent is indistinguishable from a blocked one, so if the
//! *last* child a parent is joining released its own slot on exit, there
//! would be a window — children done, parent notified but not yet
//! rescheduled — where `worker_sleepers + parked >= workers` holds
//! spuriously and time skips past the parent's pending continuation.
//! The slot-handoff rule closes it: a completing leg unbinds with
//! [`Clock::disown_worker`], and the last leg to finish *while the
//! parent is parked* leaves its slot counted for the parent to release
//! ([`Clock::release_worker`]) after [`Clock::exit_passive`], once it is
//! demonstrably running again. Every other leg — siblings outstanding,
//! or parent still active on its inline child — releases its own slot,
//! since a kept slot would then block the sleeps that legitimately drive
//! time forward.
//!
//! Multiple top-level invocations may share one `VirtualClock` (each
//! registers its own workers), but determinism then only extends to the
//! set of wake-ups, not their interleaving: concurrent invocations race
//! on OS scheduling exactly as concurrent wall-clock work would.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A source of time and sleep for the runtime.
///
/// `now` is an offset from the clock's epoch (construction time for
/// [`WallClock`], zero for [`VirtualClock`]); only differences between
/// `now` readings of the *same* clock are meaningful.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Time elapsed since the clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks the calling thread for `duration` of this clock's time.
    fn sleep(&self, duration: Duration);

    /// Registers the calling thread as an active worker — equivalent to
    /// [`reserve_worker`](Clock::reserve_worker) followed by
    /// [`adopt_worker`](Clock::adopt_worker). No-op for real-time clocks.
    fn enter_worker(&self) {}

    /// Reserves one worker slot *without* binding it to a thread. A parent
    /// calls this before spawning a child thread so the slot exists before
    /// the child runs; the child then binds itself with
    /// [`adopt_worker`](Clock::adopt_worker). No-op for real-time clocks.
    fn reserve_worker(&self) {}

    /// Binds the calling thread to a worker slot previously created with
    /// [`reserve_worker`](Clock::reserve_worker). No-op for real-time
    /// clocks.
    fn adopt_worker(&self) {}

    /// Unbinds the calling thread and releases one worker slot. No-op for
    /// real-time clocks.
    fn exit_worker(&self) {}

    /// Unbinds the calling thread from its worker slot *without* releasing
    /// the slot: the slot keeps counting toward the advance threshold until
    /// someone calls [`release_worker`](Clock::release_worker) for it. A
    /// completed parallel leg uses this to hand its slot to the joining
    /// parent, so virtual time cannot advance in the window between the
    /// leg's completion and the parent resuming from its passive wait.
    /// No-op for real-time clocks.
    fn disown_worker(&self) {}

    /// Releases one worker slot that is not bound to the calling thread —
    /// the counterpart of [`disown_worker`](Clock::disown_worker), called
    /// by whichever thread the slot was handed to. No-op for real-time
    /// clocks.
    fn release_worker(&self) {}

    /// Marks one worker as passively blocked (e.g. joining a spawned
    /// thread). No-op for real-time clocks.
    fn enter_passive(&self) {}

    /// Clears one passive mark. No-op for real-time clocks.
    fn exit_passive(&self) {}

    /// True when the calling thread is currently bound to a worker slot of
    /// *this* clock. Layers that may be entered by either registered or
    /// unregistered threads use this to compose: the engine skips its own
    /// registration for a caller that is already a worker, and the
    /// gateway's admission gate marks a registered caller's queue wait
    /// passive so it does not stall virtual time. Always `false` for
    /// real-time clocks (registration is a no-op there).
    fn thread_is_worker(&self) -> bool {
        false
    }

    /// Blocks on `parker` until `ready()` returns true or — when
    /// `deadline` is `Some` — this clock reaches `deadline`, whichever
    /// comes first. This is the event loop's idle wait: `parker` is its
    /// core's parking spot, `deadline` is the earliest scheduled
    /// completion event, and `ready` flips when another thread posts an
    /// event (the poster then calls
    /// [`notify_sleepers`](Clock::notify_sleepers) with the same parker).
    ///
    /// `ready` may be invoked while the clock holds internal locks, so it
    /// must be cheap and must not call back into this clock — reading an
    /// atomic flag is the intended shape.
    ///
    /// On [`VirtualClock`] a waiting registered worker counts toward the
    /// advance threshold (like a sleeper when `deadline` is `Some`, like a
    /// passive parent when it is `None`), so an idle event loop never
    /// stalls virtual time. The default implementation brackets a polling
    /// wait in [`enter_passive`](Clock::enter_passive)/
    /// [`exit_passive`](Clock::exit_passive); clocks with their own wait
    /// machinery should override it with a real blocking wait.
    fn sleep_until_or(
        &self,
        _parker: &Arc<Parker>,
        deadline: Option<Duration>,
        ready: &dyn Fn() -> bool,
    ) {
        if ready() {
            return;
        }
        self.enter_passive();
        loop {
            if ready() {
                break;
            }
            if let Some(deadline) = deadline {
                if self.now() >= deadline {
                    break;
                }
            }
            std::thread::yield_now();
        }
        self.exit_passive();
    }

    /// Wakes the threads blocked in [`sleep_until_or`](Clock::sleep_until_or)
    /// on `parker` — and nobody else — so they can re-check their `ready`
    /// predicate. Posting an event and then calling this (in that order)
    /// guarantees the wakeup is never lost.
    fn notify_sleepers(&self, _parker: &Parker) {}
}

/// One event core's parking spot: the condvar its idle drivers block on in
/// [`Clock::sleep_until_or`], so a post wakes the core it is for and no
/// other. The condvar pairs with the *clock's* mutex, not one of its own:
/// a time jump and a post must both be ordered against the sleeper's
/// predicate check, and the clock's lock already orders the first.
#[derive(Debug, Default)]
pub struct Parker {
    condvar: Condvar,
    /// Threads blocked on `condvar`. Incremented under the clock's mutex
    /// *before* `Condvar::wait` releases it and decremented under it after
    /// the wait returns (so `Relaxed` is enough), and read only by a
    /// notifier holding that mutex: zero means no thread can be parked — a
    /// thread that has not yet counted itself has not yet checked its
    /// predicate either, and will check it under the same lock after the
    /// notifier's update. That is what lets `notify` skip `notify_all` —
    /// an unconditional `futex(FUTEX_WAKE)` in std — without losing a
    /// wake-up.
    parked: AtomicUsize,
    /// Notifies issued, i.e. the ones that found a thread parked.
    wakes: AtomicU64,
}

thread_local! {
    /// [`Parker::of_this_thread`], and the address of the clock it met.
    static OWN_PARKER: RefCell<Option<(usize, Arc<Parker>)>> = const { RefCell::new(None) };
}

impl Parker {
    /// The calling thread's own parker, for a per-request core: its
    /// driver is its only idler, so the core allocates nothing to park.
    /// Sharing a parker is always safe — a notify meant for another core
    /// is a spurious wake-up — but a std condvar may meet only one mutex,
    /// so a thread that changes clocks gets a new one.
    pub(crate) fn of_this_thread(clock: &dyn Clock) -> Arc<Parker> {
        let clock = clock as *const dyn Clock as *const () as usize;
        OWN_PARKER.with(|own| match &mut *own.borrow_mut() {
            Some((made_for, parker)) if *made_for == clock => Arc::clone(parker),
            own => Arc::clone(&own.insert((clock, Arc::default())).1),
        })
    }

    /// Notifies issued on this parker so far: posts that found a driver
    /// parked, and time jumps that reached a parked driver's deadline.
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Blocks on the condvar, releasing `guard` — the owning clock's lock
    /// — for as long as the thread is parked.
    fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let guard = match timeout {
            Some(timeout) => {
                let woken = self.condvar.wait_timeout(guard, timeout);
                woken.unwrap_or_else(PoisonError::into_inner).0
            }
            None => self
                .condvar
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner),
        };
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Wakes the parked threads to re-check their predicates; free when
    /// nobody is parked. Call with the owning clock's lock held.
    fn notify(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.condvar.notify_all();
        }
    }
}

/// True when `a` and `b` are the same clock object (pointer identity on
/// the underlying data, ignoring vtables). The engine uses this to decide
/// whether a provider's internal sleeps can be folded into a scheduled
/// completion event on the engine clock.
pub(crate) fn same_clock(a: &dyn Clock, b: &dyn Clock) -> bool {
    std::ptr::eq(
        a as *const dyn Clock as *const (),
        b as *const dyn Clock as *const (),
    )
}

/// RAII worker registration: deregisters on drop, so the worker count
/// unwinds correctly even when the guarded code panics.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::{Clock, VirtualClock, WorkerGuard};
///
/// let clock = VirtualClock::new();
/// {
///     let _worker = WorkerGuard::enter(&clock);
///     clock.sleep(Duration::from_millis(10)); // sole worker: advances
/// } // deregistered here, panic or not
/// assert_eq!(clock.now(), Duration::from_millis(10));
/// ```
#[derive(Debug)]
pub struct WorkerGuard<'a> {
    clock: &'a dyn Clock,
}

impl<'a> WorkerGuard<'a> {
    /// Registers the calling thread as a new worker.
    pub fn enter(clock: &'a dyn Clock) -> Self {
        clock.enter_worker();
        WorkerGuard { clock }
    }

    /// Binds the calling thread to a slot the parent already created with
    /// [`Clock::reserve_worker`].
    pub fn adopt(clock: &'a dyn Clock) -> Self {
        clock.adopt_worker();
        WorkerGuard { clock }
    }
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.clock.exit_worker();
    }
}

/// Real time: `now` measures from construction, `sleep` really sleeps.
///
/// This is the **only** place in the crate that touches
/// `std::time::Instant::now` and `std::thread::sleep` directly.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    /// The lock every [`Parker`] used with this clock pairs with: a waiter
    /// checks `ready` and a notifier reads [`Parker::parked`] under it.
    waiters: Mutex<()>,
}

impl WallClock {
    /// Creates a wall clock whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
            waiters: Mutex::new(()),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    fn sleep_until_or(
        &self,
        parker: &Arc<Parker>,
        deadline: Option<Duration>,
        ready: &dyn Fn() -> bool,
    ) {
        let mut guard = self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        // `ready` is checked under the waiters lock, which `notify_sleepers`
        // also takes: a post-then-notify sequence can never slip between
        // the check and the wait.
        while !ready() {
            let timeout = deadline.map(|deadline| deadline.saturating_sub(self.now()));
            if timeout == Some(Duration::ZERO) {
                return;
            }
            guard = parker.wait(guard, timeout);
        }
    }

    fn notify_sleepers(&self, parker: &Parker) {
        let _waiters = self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        parker.notify();
    }
}

/// Distinguishes clocks in the per-thread worker-registration map, so two
/// `VirtualClock`s never see each other's bindings.
static NEXT_CLOCK_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Worker-registration depth of this thread, per clock id.
    static WORKER_DEPTH: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

#[derive(Debug)]
struct VcState {
    now: Duration,
    workers: usize,
    parked: usize,
    /// Sleepers that are registered worker threads; only these count
    /// toward the advance threshold.
    worker_sleepers: usize,
    /// `(token, deadline, parker)` per thread blocked to a deadline,
    /// worker or not: in `sleep` on the clock's own condvar (`None`), or
    /// in `sleep_until_or` on its core's parker.
    sleepers: Vec<(u64, Duration, Option<Arc<Parker>>)>,
    next_token: u64,
    /// Threads blocked in `sleep` on the clock's own condvar right now,
    /// counted as [`Parker::parked`] is.
    waiting: usize,
}

/// Deterministic simulated time (see the module docs for the advance
/// protocol).
///
/// # Examples
///
/// An unregistered thread's sleep advances time instantly when no workers
/// are registered:
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::{Clock, VirtualClock};
///
/// let clock = VirtualClock::new();
/// clock.sleep(Duration::from_secs(3600)); // returns immediately
/// assert_eq!(clock.now(), Duration::from_secs(3600));
/// ```
#[derive(Debug)]
pub struct VirtualClock {
    id: u64,
    state: Mutex<VcState>,
    wake: Condvar,
}

impl VirtualClock {
    /// Creates a virtual clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock {
            id: NEXT_CLOCK_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(VcState {
                now: Duration::ZERO,
                workers: 0,
                parked: 0,
                worker_sleepers: 0,
                sleepers: Vec::new(),
                next_token: 0,
                waiting: 0,
            }),
            wake: Condvar::new(),
        }
    }

    /// Advances virtual time by `duration`, waking any sleeper whose
    /// deadline is reached. Use this from tests to move through scheduled
    /// fault windows without invoking anything.
    pub fn advance(&self, duration: Duration) {
        let mut state = self.lock();
        state.now = state.now.saturating_add(duration);
        self.notify_jump(&state);
    }

    fn lock(&self) -> MutexGuard<'_, VcState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks in `sleep` on the clock's own condvar, counted in
    /// [`VcState::waiting`] for as long as the thread is parked.
    fn wait<'a>(&self, mut state: MutexGuard<'a, VcState>) -> MutexGuard<'a, VcState> {
        state.waiting += 1;
        let mut state = self
            .wake
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
        state.waiting -= 1;
        state
    }

    /// `now` has moved: wakes the parkers of the drivers whose deadline it
    /// reached, and the `sleep`ers — who share one condvar, so all of them
    /// — to re-check theirs. A driver waiting on `ready` alone has no
    /// deadline here and is left asleep.
    fn notify_jump(&self, state: &VcState) {
        for (_, deadline, parker) in &state.sleepers {
            match parker {
                Some(parker) if *deadline <= state.now => parker.notify(),
                _ => {}
            }
        }
        if state.waiting > 0 {
            self.wake.notify_all();
        }
    }

    /// Adjusts the calling thread's registration depth for this clock.
    fn bind_thread(&self, delta: i64) {
        WORKER_DEPTH.with(|depths| {
            let mut depths = depths.borrow_mut();
            let depth = depths.entry(self.id).or_insert(0);
            if delta >= 0 {
                *depth += delta as usize;
            } else {
                *depth = depth.saturating_sub((-delta) as usize);
            }
            if *depth == 0 {
                depths.remove(&self.id);
            }
        });
    }

    /// Jumps to the earliest sleeping deadline if no worker can make
    /// progress. Call after any counter change that could block progress.
    fn try_advance(&self, state: &mut VcState) {
        if state.worker_sleepers + state.parked < state.workers {
            return;
        }
        let Some(earliest) = state.sleepers.iter().map(|(_, due, _)| *due).min() else {
            return;
        };
        // A deadline at or before `now` belongs to a sleeper that has been
        // woken but has not yet removed itself; it will re-trigger the
        // advance when it next blocks or exits.
        if earliest > state.now {
            state.now = earliest;
            self.notify_jump(state);
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        self.lock().now
    }

    fn sleep(&self, duration: Duration) {
        if duration.is_zero() {
            return;
        }
        let is_worker = self.thread_is_worker();
        let mut state = self.lock();
        let deadline = state.now.saturating_add(duration);
        let token = state.next_token;
        state.next_token += 1;
        state.sleepers.push((token, deadline, None));
        if is_worker {
            state.worker_sleepers += 1;
        }
        self.try_advance(&mut state);
        while state.now < deadline {
            state = self.wait(state);
        }
        state.sleepers.retain(|&(t, ..)| t != token);
        if is_worker {
            state.worker_sleepers -= 1;
        }
        // A woken bystander leaving the sleeper set can unblock the
        // remaining sleepers (their earliest deadline just changed); a
        // woken worker re-entering computation makes the condition false,
        // so re-checking here is always safe.
        self.try_advance(&mut state);
    }

    fn enter_worker(&self) {
        self.reserve_worker();
        self.adopt_worker();
    }

    fn reserve_worker(&self) {
        self.lock().workers += 1;
    }

    fn adopt_worker(&self) {
        self.bind_thread(1);
    }

    fn exit_worker(&self) {
        self.bind_thread(-1);
        let mut state = self.lock();
        state.workers = state.workers.saturating_sub(1);
        self.try_advance(&mut state);
    }

    fn disown_worker(&self) {
        self.bind_thread(-1);
    }

    fn release_worker(&self) {
        let mut state = self.lock();
        state.workers = state.workers.saturating_sub(1);
        self.try_advance(&mut state);
    }

    fn enter_passive(&self) {
        let mut state = self.lock();
        state.parked += 1;
        self.try_advance(&mut state);
    }

    fn exit_passive(&self) {
        let mut state = self.lock();
        state.parked = state.parked.saturating_sub(1);
    }

    fn thread_is_worker(&self) -> bool {
        WORKER_DEPTH.with(|depths| depths.borrow().get(&self.id).is_some_and(|&d| d > 0))
    }

    fn sleep_until_or(
        &self,
        parker: &Arc<Parker>,
        deadline: Option<Duration>,
        ready: &dyn Fn() -> bool,
    ) {
        let is_worker = self.thread_is_worker();
        let mut state = self.lock();
        match deadline {
            Some(deadline) => {
                // Wait like a sleeper: the deadline participates in the
                // earliest-deadline computation, and a waiting worker
                // counts toward the advance threshold.
                let token = state.next_token;
                state.next_token += 1;
                state
                    .sleepers
                    .push((token, deadline, Some(Arc::clone(parker))));
                if is_worker {
                    state.worker_sleepers += 1;
                }
                self.try_advance(&mut state);
                while state.now < deadline && !ready() {
                    state = parker.wait(state, None);
                }
                state.sleepers.retain(|&(t, ..)| t != token);
                if is_worker {
                    state.worker_sleepers -= 1;
                }
                self.try_advance(&mut state);
            }
            None => {
                // Nothing scheduled: wait like a parked parent so other
                // workers' sleeps can still advance time, but contribute
                // no deadline of our own.
                if is_worker {
                    state.parked += 1;
                    self.try_advance(&mut state);
                }
                while !ready() {
                    state = parker.wait(state, None);
                }
                if is_worker {
                    state.parked = state.parked.saturating_sub(1);
                }
            }
        }
    }

    fn notify_sleepers(&self, parker: &Parker) {
        let _state = self.lock();
        parker.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wall_clock_measures_real_time() {
        let clock = WallClock::new();
        let t0 = clock.now();
        clock.sleep(Duration::from_millis(5));
        assert!(clock.now() - t0 >= Duration::from_millis(4));
    }

    #[test]
    fn unregistered_sleep_advances_instantly() {
        let clock = VirtualClock::new();
        clock.sleep(Duration::from_secs(10));
        clock.sleep(Duration::from_secs(5));
        assert_eq!(clock.now(), Duration::from_secs(15));
    }

    #[test]
    fn zero_sleep_is_a_no_op() {
        let clock = VirtualClock::new();
        clock.sleep(Duration::ZERO);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn advance_moves_time_forward() {
        let clock = VirtualClock::new();
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
    }

    #[test]
    fn thread_is_worker_tracks_binding_per_clock() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        assert!(!a.thread_is_worker());
        a.enter_worker();
        assert!(a.thread_is_worker(), "bound after enter");
        assert!(!b.thread_is_worker(), "binding is per clock");
        assert!(
            !std::thread::scope(|s| s.spawn(|| a.thread_is_worker()).join().unwrap()),
            "binding is per thread"
        );
        a.disown_worker();
        assert!(!a.thread_is_worker(), "disown unbinds without releasing");
        a.release_worker();
    }

    #[test]
    fn registered_worker_sleep_advances_when_all_blocked() {
        let clock = VirtualClock::new();
        clock.enter_worker();
        // The only worker sleeping means nothing else can run: advance.
        clock.sleep(Duration::from_millis(30));
        assert_eq!(clock.now(), Duration::from_millis(30));
        clock.exit_worker();
    }

    #[test]
    fn parallel_sleepers_wake_in_deadline_order() {
        let clock = Arc::new(VirtualClock::new());
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            // Reserve both slots before spawning either, or the first
            // sleeper could advance time while it is still alone.
            clock.reserve_worker();
            clock.reserve_worker();
            for &(name, ms) in &[("slow", 60u64), ("fast", 2)] {
                let clock = Arc::clone(&clock);
                let order = Arc::clone(&order);
                scope.spawn(move || {
                    clock.adopt_worker();
                    clock.sleep(Duration::from_millis(ms));
                    order.lock().push((name, clock.now()));
                    clock.exit_worker();
                });
            }
        });
        let order = order.lock();
        assert_eq!(order[0], ("fast", Duration::from_millis(2)));
        assert_eq!(order[1], ("slow", Duration::from_millis(60)));
    }

    #[test]
    fn passive_parent_lets_children_advance() {
        let clock = Arc::new(VirtualClock::new());
        clock.enter_worker(); // the "parent" worker
        clock.reserve_worker(); // reserve the child's slot
        let child = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                clock.adopt_worker();
                clock.sleep(Duration::from_millis(40));
                clock.exit_worker();
            })
        };
        clock.enter_passive();
        child.join().unwrap();
        clock.exit_passive();
        clock.exit_worker();
        assert_eq!(clock.now(), Duration::from_millis(40));
    }

    #[test]
    fn concurrent_unregistered_sleepers_all_wake() {
        let clock = Arc::new(VirtualClock::new());
        std::thread::scope(|scope| {
            for i in 1..=8u64 {
                let clock = Arc::clone(&clock);
                scope.spawn(move || clock.sleep(Duration::from_millis(i)));
            }
        });
        assert!(clock.now() >= Duration::from_millis(8));
    }

    #[test]
    fn bystander_sleep_does_not_advance_past_busy_worker() {
        // An unregistered thread sleeping must not fast-forward time while
        // a registered worker is still computing.
        let clock = Arc::new(VirtualClock::new());
        clock.enter_worker();
        let bystander = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || clock.sleep(Duration::from_millis(5)))
        };
        // Give the bystander ample real time to enter its sleep; virtual
        // time must hold at zero because the worker never blocked.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(clock.now(), Duration::ZERO);
        // Once the worker itself sleeps, time jumps to the earliest
        // deadline — the bystander's — and then to the worker's.
        clock.sleep(Duration::from_millis(20));
        assert_eq!(clock.now(), Duration::from_millis(20));
        bystander.join().unwrap();
        clock.exit_worker();
    }

    #[test]
    fn worker_guard_releases_on_panic() {
        let clock = Arc::new(VirtualClock::new());
        let result = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let _guard = WorkerGuard::enter(&*clock);
                panic!("worker dies");
            })
            .join()
        };
        assert!(result.is_err());
        // The guard unwound the registration: an unregistered sleep now
        // advances instantly instead of deadlocking on a phantom worker.
        clock.sleep(Duration::from_millis(7));
        assert_eq!(clock.now(), Duration::from_millis(7));
    }

    #[test]
    fn sleep_until_or_advances_to_the_deadline() {
        let clock = VirtualClock::new();
        clock.enter_worker();
        // Sole worker waiting on a scheduled event: time jumps there.
        clock.sleep_until_or(&Arc::default(), Some(Duration::from_millis(25)), &|| false);
        assert_eq!(clock.now(), Duration::from_millis(25));
        clock.exit_worker();
    }

    #[test]
    fn sleep_until_or_returns_early_on_ready() {
        use std::sync::atomic::AtomicBool;
        let clock = Arc::new(VirtualClock::new());
        let ready = Arc::new(AtomicBool::new(false));
        let parker = Arc::new(Parker::default());
        let waker = {
            let clock = Arc::clone(&clock);
            let ready = Arc::clone(&ready);
            let parker = Arc::clone(&parker);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                ready.store(true, Ordering::SeqCst);
                clock.notify_sleepers(&parker);
            })
        };
        // Unregistered waiter with no deadline: virtual time must hold
        // still, and the wait must end when the poster signals.
        clock.sleep_until_or(&parker, None, &|| ready.load(Ordering::SeqCst));
        assert_eq!(clock.now(), Duration::ZERO);
        waker.join().unwrap();
    }

    #[test]
    fn idle_event_wait_lets_other_workers_advance() {
        use std::sync::atomic::AtomicBool;
        let clock = Arc::new(VirtualClock::new());
        let done = Arc::new(AtomicBool::new(false));
        let parker = Arc::new(Parker::default());
        clock.enter_worker(); // the idle "event loop" worker
        clock.reserve_worker(); // a blocking leg's slot
        let leg = {
            let clock = Arc::clone(&clock);
            let done = Arc::clone(&done);
            let parker = Arc::clone(&parker);
            std::thread::spawn(move || {
                clock.adopt_worker();
                clock.sleep(Duration::from_millis(40));
                done.store(true, Ordering::SeqCst);
                clock.exit_worker();
                clock.notify_sleepers(&parker);
            })
        };
        // The loop has no timers (deadline None); its parked-style wait
        // must let the leg's sleep drive time to 40 ms.
        clock.sleep_until_or(&parker, None, &|| done.load(Ordering::SeqCst));
        assert_eq!(clock.now(), Duration::from_millis(40));
        leg.join().unwrap();
        clock.exit_worker();
    }

    #[test]
    fn wall_clock_sleep_until_or_times_out() {
        let clock = WallClock::new();
        let t0 = clock.now();
        clock.sleep_until_or(
            &Arc::default(),
            Some(t0 + Duration::from_millis(5)),
            &|| false,
        );
        assert!(clock.now() - t0 >= Duration::from_millis(4));
    }

    /// The parked count must never cost a wake-up: a loop thread that idles
    /// in `sleep_until_or` between tasks is woken by every single post to
    /// its core, whether the post finds it parked (notify) or still on its
    /// way to the condvar (the predicate re-check under the lock) — and
    /// with four cores' loops idling on one clock, by nobody else's. Each
    /// round waits for its task to have run, so every post races a loop
    /// going back to sleep; the receive timeout is the watchdog.
    fn every_post_wakes_the_idle_loop(clock: Arc<dyn Clock>) {
        use crate::engine::event::{EventCore, Shared};
        use std::sync::mpsc;

        const POSTS: u32 = 10_000;
        let parkers: Vec<Arc<Parker>> = (0..4).map(|_| Arc::default()).collect();
        let cores: Vec<_> = parkers
            .iter()
            .map(|parker| {
                let clock = Shared::Owned(Arc::clone(&clock));
                Arc::new(EventCore::new(clock, Arc::clone(parker)))
            })
            .collect();
        let drivers: Vec<_> = cores
            .iter()
            .map(|core| {
                let (core, clock) = (Arc::clone(core), Arc::clone(&clock));
                std::thread::spawn(move || {
                    let _worker = WorkerGuard::enter(&*clock);
                    core.run_loop(&|_| unreachable!("no request is ever submitted"));
                })
            })
            .collect();
        let (ran, rounds) = mpsc::channel();
        for round in 0..POSTS {
            let ran = ran.clone();
            cores[round as usize % cores.len()]
                .post_task(Box::new(move || ran.send(round).unwrap()));
            match rounds.recv_timeout(Duration::from_secs(20)) {
                Ok(seen) => assert_eq!(seen, round),
                Err(_) => panic!("post {round} never woke its loop"),
            }
        }
        cores.iter().for_each(|core| core.shutdown());
        drivers.into_iter().for_each(|d| d.join().unwrap());
        for (core, parker) in cores.iter().zip(&parkers) {
            assert_eq!(parker.parked.load(Ordering::Relaxed), 0);
            // At most one per post of its own (and `shutdown`'s): the
            // other three cores' 7 500 posts sent it none.
            let own = u64::from(POSTS) / 4 + 1;
            assert!(core.stats().wakeups <= own, "{:?}", core.stats());
        }
    }

    #[test]
    fn virtual_clock_wakes_an_idle_loop_on_every_post() {
        let clock = Arc::new(VirtualClock::new());
        every_post_wakes_the_idle_loop(Arc::clone(&clock) as Arc<dyn Clock>);
        let state = clock.lock();
        assert_eq!((state.workers, state.parked, state.waiting), (0, 0, 0));
        assert_eq!(
            state.now,
            Duration::ZERO,
            "nothing ever slept to a deadline"
        );
    }

    #[test]
    fn wall_clock_wakes_an_idle_loop_on_every_post() {
        every_post_wakes_the_idle_loop(Arc::new(WallClock::new()));
    }

    /// Spins (yielding) until `done()`; the watchdog of the tests below,
    /// whose waits end within microseconds unless a wake-up was lost.
    fn spin_until(what: &str, done: impl Fn() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(start.elapsed() < Duration::from_secs(20), "{what}");
            std::thread::yield_now();
        }
    }

    /// A thread idling in `sleep_until_or(parker, None, ..)` until `stop`,
    /// counting the evaluations of its predicate.
    struct Idler {
        parker: Arc<Parker>,
        evaluations: Arc<AtomicU64>,
        thread: std::thread::JoinHandle<()>,
    }

    fn idler(clock: &Arc<dyn Clock>, stop: &Arc<AtomicU64>) -> Idler {
        let parker = Arc::new(Parker::default());
        let evaluations = Arc::new(AtomicU64::new(0));
        let thread = {
            let (clock, stop) = (Arc::clone(clock), Arc::clone(stop));
            let (parker, evaluations) = (Arc::clone(&parker), Arc::clone(&evaluations));
            std::thread::spawn(move || {
                clock.sleep_until_or(&parker, None, &|| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    stop.load(Ordering::SeqCst) != 0
                });
            })
        };
        spin_until("the idler never parked", || {
            parker.parked.load(Ordering::SeqCst) == 1
        });
        Idler {
            parker,
            evaluations,
            thread,
        }
    }

    /// Two cores' drivers idle on one clock: posts to A are none of B's
    /// business — B is sent no wake-up and never re-checks its predicate.
    fn posts_to_one_core_leave_the_other_asleep(clock: Arc<dyn Clock>) {
        let stop = Arc::new(AtomicU64::new(0));
        let (a, b) = (idler(&clock, &stop), idler(&clock, &stop));
        for _ in 0..1_000 {
            clock.notify_sleepers(&a.parker);
        }
        assert!((1..=1_000).contains(&a.parker.wakes()), "A was woken");
        assert_eq!(b.parker.wakes(), 0);
        assert_eq!(
            b.evaluations.load(Ordering::SeqCst),
            1,
            "only the check before B parked"
        );
        stop.store(1, Ordering::SeqCst);
        for idler in [a, b] {
            clock.notify_sleepers(&idler.parker);
            idler.thread.join().unwrap();
            assert!(idler.evaluations.load(Ordering::SeqCst) >= 2);
        }
    }

    #[test]
    fn virtual_clock_posts_wake_only_their_own_core() {
        posts_to_one_core_leave_the_other_asleep(Arc::new(VirtualClock::new()));
    }

    #[test]
    fn wall_clock_posts_wake_only_their_own_core() {
        posts_to_one_core_leave_the_other_asleep(Arc::new(WallClock::new()));
    }

    /// A post is never lost to a driver on its way to the condvar: the
    /// waiter goes straight back to sleep after each round and the poster
    /// posts the next the moment it sees the last acknowledged, so the
    /// store-then-notify races the check-then-wait 10 000 times.
    fn a_post_racing_the_driver_to_the_condvar_is_never_lost(clock: Arc<dyn Clock>) {
        const ROUNDS: u64 = 10_000;
        let parker = Arc::new(Parker::default());
        let (posted, acked) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let waiter = {
            let (clock, parker) = (Arc::clone(&clock), Arc::clone(&parker));
            let (posted, acked) = (Arc::clone(&posted), Arc::clone(&acked));
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    clock.sleep_until_or(&parker, None, &|| posted.load(Ordering::SeqCst) >= round);
                    acked.store(round, Ordering::SeqCst);
                }
            })
        };
        for round in 1..=ROUNDS {
            posted.store(round, Ordering::SeqCst);
            clock.notify_sleepers(&parker);
            spin_until("a post was lost", || acked.load(Ordering::SeqCst) == round);
        }
        waiter.join().unwrap();
        assert_eq!(parker.parked.load(Ordering::Relaxed), 0);
        assert!(parker.wakes() <= ROUNDS);
    }

    #[test]
    fn virtual_clock_never_loses_a_racing_post() {
        a_post_racing_the_driver_to_the_condvar_is_never_lost(Arc::new(VirtualClock::new()));
    }

    #[test]
    fn wall_clock_never_loses_a_racing_post() {
        a_post_racing_the_driver_to_the_condvar_is_never_lost(Arc::new(WallClock::new()));
    }

    #[test]
    fn a_time_jump_wakes_exactly_the_drivers_it_reaches() {
        use std::sync::mpsc;
        let ms = Duration::from_millis;
        let clock = Arc::new(VirtualClock::new());
        clock.enter_worker(); // this thread: runnable, so time holds at 0
        let (woke, wakes) = mpsc::channel();
        let drivers: Vec<_> = [5, 5, 9]
            .into_iter()
            .enumerate()
            .map(|(i, deadline)| {
                let parker = Arc::new(Parker::default());
                let (go, held) = mpsc::channel::<()>();
                clock.reserve_worker();
                let thread = {
                    let (clock, parker, woke) =
                        (Arc::clone(&clock), Arc::clone(&parker), woke.clone());
                    std::thread::spawn(move || {
                        clock.adopt_worker();
                        clock.sleep_until_or(&parker, Some(ms(deadline)), &|| false);
                        woke.send((i, clock.now())).unwrap();
                        // Registered and not in the clock: runnable, as
                        // far as virtual time can tell.
                        held.recv().unwrap();
                        clock.exit_worker();
                        woke.send((i, clock.now())).unwrap();
                    })
                };
                spin_until("the driver never parked", || {
                    parker.parked.load(Ordering::SeqCst) == 1
                });
                (parker, go, thread)
            })
            .collect();
        let sent = || -> Vec<u64> { drivers.iter().map(|d| d.0.wakes()).collect() };
        let next = || wakes.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!((clock.now(), sent()), (Duration::ZERO, vec![0, 0, 0]));

        // The last runnable worker leaves: one jump, to the earliest
        // deadline, notifying the two drivers due then and not the third.
        clock.exit_worker();
        assert_eq!((clock.now(), sent()), (ms(5), vec![1, 1, 0]));
        let mut first = [next(), next()];
        first.sort_unstable();
        assert_eq!(first, [(0, ms(5)), (1, ms(5))]);
        // Both are awake and registered: time may not move under them.
        assert_eq!((clock.now(), sent()), (ms(5), vec![1, 1, 0]));
        drivers[0].1.send(()).unwrap();
        assert_eq!(next(), (0, ms(5)), "one runnable worker still pins time");
        assert_eq!(sent(), vec![1, 1, 0]);
        // The second leaving is what lets time reach the third's deadline.
        drivers[1].1.send(()).unwrap();
        let mut last = [next(), next()];
        last.sort_unstable();
        assert_eq!(last, [(1, ms(9)), (2, ms(9))]);
        assert_eq!(sent(), vec![1, 1, 1]);
        drivers[2].1.send(()).unwrap();
        assert_eq!(next(), (2, ms(9)));
        for (_, _, thread) in drivers {
            thread.join().unwrap();
        }
    }

    #[test]
    fn one_jump_wakes_a_sleeper_and_a_driver_due_together() {
        let clock = Arc::new(VirtualClock::new());
        let parker = Arc::new(Parker::default());
        let deadline = Duration::from_millis(7);
        clock.enter_worker();
        clock.reserve_worker();
        clock.reserve_worker();
        let sleeper = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let _worker = WorkerGuard::adopt(&*clock);
                clock.sleep(deadline);
                clock.now()
            })
        };
        let driver = {
            let (clock, parker) = (Arc::clone(&clock), Arc::clone(&parker));
            std::thread::spawn(move || {
                let _worker = WorkerGuard::adopt(&*clock);
                clock.sleep_until_or(&parker, Some(deadline), &|| false);
                clock.now()
            })
        };
        spin_until("both never parked", || {
            clock.lock().waiting == 1 && parker.parked.load(Ordering::SeqCst) == 1
        });
        assert_eq!(clock.now(), Duration::ZERO);
        clock.exit_worker();
        assert_eq!((clock.now(), parker.wakes()), (deadline, 1));
        assert_eq!(sleeper.join().unwrap(), deadline);
        assert_eq!(driver.join().unwrap(), deadline);
        assert_eq!(clock.now(), deadline, "one jump served both");
    }

    #[test]
    fn notifying_nobody_changes_nothing() {
        type Counts = (
            Duration,
            usize,
            usize,
            usize,
            Vec<(u64, Duration)>,
            u64,
            usize,
        );
        fn counts(clock: &VirtualClock) -> Counts {
            let s = clock.lock();
            let sleepers = s.sleepers.iter().map(|s| (s.0, s.1)).collect();
            (
                s.now,
                s.workers,
                s.parked,
                s.worker_sleepers,
                sleepers,
                s.next_token,
                s.waiting,
            )
        }
        let clock = VirtualClock::new();
        clock.enter_worker();
        clock.sleep(Duration::from_millis(3)); // a past sleeper leaves no trace
        clock.reserve_worker();
        let before = counts(&clock);
        assert_eq!(
            (before.0, before.1, before.6),
            (Duration::from_millis(3), 2, 0)
        );
        let parker = Parker::default();
        clock.notify_sleepers(&parker);
        assert_eq!(counts(&clock), before);
        // `advance` with nobody waiting moves `now` and nothing else.
        clock.advance(Duration::from_millis(4));
        let mut moved = before.clone();
        moved.0 = Duration::from_millis(7);
        assert_eq!(counts(&clock), moved);
        clock.release_worker();
        clock.exit_worker();

        let wall = WallClock::new();
        wall.notify_sleepers(&parker);
        assert_eq!(
            (parker.parked.load(Ordering::Relaxed), parker.wakes()),
            (0, 0)
        );
    }

    #[test]
    fn same_clock_is_pointer_identity() {
        let a: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let b: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        assert!(same_clock(&*a, &*Arc::clone(&a)));
        assert!(!same_clock(&*a, &*b));
    }

    #[test]
    fn two_clocks_do_not_share_thread_bindings() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        a.enter_worker();
        // The thread is a worker of `a` only: `b` sees an unregistered
        // sleep and advances instantly.
        b.sleep(Duration::from_millis(9));
        assert_eq!(b.now(), Duration::from_millis(9));
        a.exit_worker();
    }
}
