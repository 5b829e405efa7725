//! Time as a capability: every component that waits or timestamps does so
//! through a [`Clock`], so the whole runtime can run on either real time
//! ([`WallClock`]) or deterministic simulated time ([`VirtualClock`]).
//!
//! The virtual clock makes the test suite both *fast* (no real sleeping:
//! a 500 ms simulated latency costs microseconds) and *deterministic*
//! (latency assertions are exact equalities, not fuzzy bounds).
//!
//! # The wait protocol
//!
//! [`VirtualClock`] coordinates real OS threads over simulated time with
//! one state machine (`VcState`, private). Its transitions never block:
//! each changes counters under the clock's one lock and *returns* the
//! [`Parker`]s to notify. The clock's methods are the shell — lock, one
//! transition, then one helper (`settle`) that publishes the transition's
//! `now` to a lock-free mirror and sends the notifies it returned — and a
//! thread blocks only on a parker a wait transition counted it onto.
//!
//! Virtual time *jumps* — straight to the earliest waiting deadline —
//! exactly when no worker can make progress: a deadline lies ahead of
//! `now` and `worker_sleepers + parked >= workers`. `workers` counts slots
//! of threads doing runtime work (thread-bound: reserved, then adopted by
//! the OS thread that works in it), `worker_sleepers` those waiting to a
//! deadline, `parked` those in a passive wait — joining children, idling
//! with no deadline — which make no progress on their own. A wait from an
//! *unregistered* thread (a market fetch on a caller thread, a test poking
//! a provider directly) lends its deadline and never counts toward the
//! threshold, so time cannot jump while a registered worker is still
//! computing just because some bystander went to sleep; with no workers
//! registered it advances time at once. Every transition that can make
//! the condition true ends by trying the jump, which *reaches* a waiter
//! when its deadline is at or before the new `now` and a thread is parked
//! on its parker; a waiter with no deadline waits on `ready` alone and a
//! jump leaves it asleep.
//!
//! | transition: callers | precondition | counters changed | who is woken |
//! |---|---|---|---|
//! | `reserve`: [`Clock::reserve_worker`] | — | `workers + 1` | nobody |
//! | `release`: [`Clock::release_worker`] | a slot is held | `workers − 1`; jump | waiters the jump reached |
//! | `go_passive`: [`Clock::enter_passive`] | caller is a worker | `parked + 1`; jump | waiters the jump reached |
//! | `go_active`: [`Clock::exit_passive`] | a passive mark is held | `parked − 1` | nobody: the threshold only got harder |
//! | `begin_wait`: [`Clock::sleep`], [`Clock::sleep_until_or`] | — | with a deadline, an entry in `sleepers` and, for a worker, `worker_sleepers + 1`; without, `parked + 1` for a worker; jump | waiters the jump reached |
//! | `parks`: the same, next and after every wake-up | `ready` read in this lock hold | the parker's count `− 1` if it was parked, `+ 1` if it parks: not ready, deadline ahead | nobody |
//! | `end_wait`: the same, returning | not parked | `begin_wait`'s undone; jump | waiters the jump reached |
//! | `Parker::post`: [`Clock::notify_sleepers`] | the poster's flag is stored | none | the parker, unless its count is zero |
//! | `advance`: [`VirtualClock::advance`] | — | `now + d` | waiters `now` reached |
//! | none: [`Clock::adopt_worker`], [`Clock::disown_worker`], [`Clock::thread_is_worker`] | — | none: the calling thread's own binding | nobody |
//! | none: [`Clock::now`] | — | none: a read of the mirror, which `settle` stores after every transition above, before its notifies; the locked `now` only past `u64::MAX` ns | nobody |
//!
//! The mirror is written only under the lock, in transition order, so it
//! never goes back and never runs ahead of the locked `now`; a thread a
//! transition woke re-takes the lock first, so it reads at least the `now`
//! that woke it.
//!
//! Registered workers must never block outside the clock's own waits
//! without a passive mark ([`Clock::enter_passive`]), or virtual time
//! stalls and every sleeper deadlocks; whoever wakes such a waiter clears
//! its mark first ([`Clock::exit_passive`]), or time can jump past it
//! before it runs (the gateway's `Handoff`, DESIGN §8). Use [`WorkerGuard`]
//! rather than pairing reserve/adopt with disown/release by hand: it
//! deregisters on drop, so a panicking provider cannot leak the worker
//! count and hang every later sleeper.
//!
//! An idle event-core driver is indistinguishable from a blocked thread,
//! so if a finished blocking leg released its slot on exit, there would be
//! a window — leg done, its completion posted but not yet processed —
//! where `worker_sleepers + parked >= workers` holds spuriously and time
//! skips past the continuation the completion starts. So a blocking leg
//! only unbinds ([`Clock::disown_worker`], in the engine's `run_blocking`)
//! and its slot stays counted, orphaned, until the driver has processed
//! the completion and releases it ([`Clock::release_worker`]). A post to
//! a core that has shut down releases the slot at once, and so does a
//! pool task whose core is gone.
//!
//! Multiple top-level invocations may share one `VirtualClock` (each
//! registers its own workers), but determinism then only extends to the
//! set of wake-ups, not their interleaving: concurrent invocations race
//! on OS scheduling exactly as concurrent wall-clock work would.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::engine::event::EventCore;

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

    /// Reserves one worker slot *without* binding it to a thread. A parent
    /// calls this before spawning a child thread so the slot exists before
    /// the child runs; the child then binds itself with
    /// [`adopt_worker`](Clock::adopt_worker). No-op for real-time clocks.
    fn reserve_worker(&self) {}

    /// Binds the calling thread to a worker slot previously created with
    /// [`reserve_worker`](Clock::reserve_worker). No-op for real-time
    /// clocks.
    fn adopt_worker(&self) {}

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
    /// gateway marks a registered caller's wait on a request or on
    /// admission passive. Always `false` for real-time clocks
    /// (registration is a no-op there).
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
    /// stalls virtual time.
    fn sleep_until_or(
        &self,
        parker: &Arc<Parker>,
        deadline: Option<Duration>,
        ready: &dyn Fn() -> bool,
    );

    /// Wakes the threads blocked in [`sleep_until_or`](Clock::sleep_until_or)
    /// on `parker` — and nobody else — so they can re-check their `ready`
    /// predicate. Posting an event and then calling this (in that order)
    /// guarantees the wakeup is never lost.
    fn notify_sleepers(&self, parker: &Parker);
}

/// One parking spot: the condvar the idle drivers of one event core block
/// on in [`Clock::sleep_until_or`] (and a thread in [`Clock::sleep`] on
/// its own), so a post wakes the core it is for and no other. The condvar
/// pairs with the *clock's* mutex, not one of its own: a time jump and a
/// post must both be ordered against the waiter's predicate check, and the
/// clock's lock already orders the first.
#[derive(Debug, Default)]
pub struct Parker {
    condvar: Condvar,
    /// Threads blocked on `condvar`. Read and written only by the owning
    /// clock's wait and post steps, under its mutex (so `Relaxed` is
    /// enough): counted in *before* `Condvar::wait` releases the mutex and
    /// out after the wait re-acquired it. Zero therefore means no thread
    /// can be parked — a thread that has not yet counted itself has not
    /// yet checked its predicate either, and will check it under the same
    /// lock after the notifier's update. That is what lets [`Parker::post`]
    /// skip `notify_all` — an unconditional `futex(FUTEX_WAKE)` in std —
    /// without losing a wake-up.
    parked: AtomicUsize,
    /// Notifies issued, i.e. the ones that found a thread parked.
    wakes: AtomicU64,
}

/// An event core a blocking drive left idle on its thread, for the
/// thread's next blocking drive on the same clock.
type IdleCore = Arc<EventCore<'static>>;

/// What [`OWN_PARKER`] holds: the thread's parker, the address of the
/// clock it was made for, and the idle core bound to it.
struct OwnParker {
    clock: usize,
    parker: Arc<Parker>,
    idle_core: Option<IdleCore>,
}

thread_local! {
    /// [`Parker::of_this_thread`], and the idle core parked beside it.
    static OWN_PARKER: RefCell<Option<OwnParker>> = const { RefCell::new(None) };
}

impl Parker {
    /// The calling thread's own parker, for a core its caller drives
    /// (`execute_scoped`, a blocking `drive`) — its driver is its only
    /// idler, so the core allocates nothing to park —
    /// and for the thread's plain sleeps. Sharing a parker is always safe
    /// — a notify meant for another wait is a spurious wake-up — but a std
    /// condvar may meet only one mutex, so a thread that changes clocks
    /// gets a new one (and drops the idle core bound to the old one).
    pub(crate) fn of_this_thread(clock: &dyn Clock) -> Arc<Parker> {
        Self::own(clock, |own| Arc::clone(&own.parker))
    }

    /// The idle core [`Parker::keep_idle_core`] last left beside the
    /// calling thread's parker for `clock`, if any. It is taken, not lent:
    /// a blocking drive nested inside the one it serves finds none.
    pub(crate) fn take_idle_core(clock: &dyn Clock) -> Option<IdleCore> {
        Self::own(clock, |own| own.idle_core.take())
    }

    /// Leaves `core` beside the calling thread's parker for its next
    /// blocking drive. The caller vouches that the core is quiescent and
    /// disarmed, and that no other thread holds it. The core is dropped
    /// instead when it is not bound to this thread's current parker (the
    /// thread changed clocks meanwhile; a parker is made for one clock, so
    /// the parker decides) or a core is already kept (a nested drive left
    /// its own).
    pub(crate) fn keep_idle_core(core: IdleCore) {
        let refused = OWN_PARKER.with(|own| match &mut *own.borrow_mut() {
            Some(own) if Arc::ptr_eq(&own.parker, core.parker()) && own.idle_core.is_none() => {
                own.idle_core = Some(core);
                None
            }
            _ => Some(core),
        });
        drop(refused);
    }

    /// Runs `f` on the calling thread's entry for `clock`, replacing an
    /// entry made for another clock. What a replaced entry held is dropped
    /// after the thread-local is released.
    fn own<R>(clock: &dyn Clock, f: impl FnOnce(&mut OwnParker) -> R) -> R {
        let clock = clock as *const dyn Clock as *const () as usize;
        let mut replaced = None;
        let result = OWN_PARKER.with(|own| match &mut *own.borrow_mut() {
            Some(own) if own.clock == clock => f(own),
            own => {
                replaced = own.take();
                f(own.insert(OwnParker {
                    clock,
                    parker: Arc::default(),
                    idle_core: None,
                }))
            }
        });
        drop(replaced);
        result
    }

    /// Notifies issued on this parker so far: posts that found a thread
    /// parked, and time jumps that reached a parked waiter's deadline.
    pub(crate) fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Threads parked on this parker now, for a test to wait until its
    /// driver sleeps.
    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// A post to this parker: the parker itself when a thread is parked
    /// on it, for the caller to [`notify`]; `None` when the notify may be
    /// skipped (see [`Parker::parked`]). Call with the owning clock's lock
    /// held.
    fn post(&self) -> Option<&Parker> {
        (self.parked.load(Ordering::Relaxed) > 0).then_some(self)
    }
}

/// Issues the notifies a transition returned, for the parked threads to
/// re-check their predicates. Call with the owning clock's lock held.
fn notify<'a>(parkers: impl IntoIterator<Item = &'a Parker>) {
    for parker in parkers {
        parker.wakes.fetch_add(1, Ordering::Relaxed);
        parker.condvar.notify_all();
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
        clock.reserve_worker();
        clock.adopt_worker();
        WorkerGuard { clock }
    }
}

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.clock.disown_worker();
        self.clock.release_worker();
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
            parker.parked.fetch_add(1, Ordering::Relaxed);
            guard = match timeout {
                Some(timeout) => {
                    let woken = parker.condvar.wait_timeout(guard, timeout);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
                None => parker
                    .condvar
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            parker.parked.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn notify_sleepers(&self, parker: &Parker) {
        let _waiters = self.waiters.lock().unwrap_or_else(PoisonError::into_inner);
        notify(parker.post());
    }
}

/// Distinguishes clocks in the per-thread worker-registration table, so
/// two `VirtualClock`s never see each other's bindings.
static NEXT_CLOCK_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Worker-registration depth of this thread, per clock id; an entry
    /// leaves when its depth reaches zero. A thread is bound to one or two
    /// clocks at a time, so a scan beats hashing the id.
    static WORKER_DEPTH: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// One thread's wait, as the thread carries it from lock hold to lock hold.
struct Wait<'p> {
    parker: &'p Arc<Parker>,
    deadline: Option<Duration>,
    /// Bound to a worker slot, so counted toward the advance threshold.
    is_worker: bool,
    /// Its entry in [`VcState::sleepers`], once begun with a deadline.
    token: u64,
    /// Counted in on `parker` by the last [`VcState::parks`].
    parked: bool,
}

/// The whole wait protocol (the module docs have the table): every method
/// is one non-blocking step taken under [`VirtualClock`]'s lock.
#[derive(Debug, Default)]
struct VcState {
    now: Duration,
    workers: usize,
    parked: usize,
    /// Sleepers that are registered worker threads; only these count
    /// toward the advance threshold.
    worker_sleepers: usize,
    /// `(token, deadline, parker)` per thread waiting to a deadline, worker
    /// or not; the parker is where it parks, for the jump that reaches the
    /// deadline to notify.
    sleepers: Vec<(u64, Duration, Arc<Parker>)>,
    next_token: u64,
    /// Holds of the clock's lock taken by [`VirtualClock::lock`], counted
    /// under the lock itself, so counting adds no atomic. A wait's
    /// re-acquisitions after a wake-up are not counted: how often a waiter
    /// wakes depends on the schedule, the holds its caller asked for do
    /// not.
    holds: u64,
}

/// Takes one off `count`. Going below zero is an unbalanced caller: loud
/// where `debug_assertions` are on, absorbed (the count stays at zero,
/// where it can stall nobody) where they are not.
fn uncount(count: &mut usize, what: &str) {
    debug_assert!(*count > 0, "{what} without its counterpart");
    *count = count.saturating_sub(1);
}

/// What a transition leaves for the shell: where `now` stands after it,
/// and — iterated — the parkers to notify, one per waiter a move of `now`
/// reached whose parker has a thread parked. A waiter on `ready` alone is
/// never among them and is left asleep.
struct Reached<'s> {
    now: Duration,
    waiters: std::slice::Iter<'s, (u64, Duration, Arc<Parker>)>,
}

impl<'s> Iterator for Reached<'s> {
    type Item = &'s Parker;

    fn next(&mut self) -> Option<&'s Parker> {
        let now = self.now;
        let mut due = self.waiters.by_ref().filter(|(_, due, _)| *due <= now);
        due.find_map(|(.., parker)| parker.post())
    }
}

impl VcState {
    fn reserve(&mut self) -> Reached<'_> {
        self.workers += 1;
        self.reached(false)
    }

    fn release(&mut self) -> Reached<'_> {
        uncount(&mut self.workers, "release_worker");
        self.jump()
    }

    fn go_passive(&mut self) -> Reached<'_> {
        self.parked += 1;
        self.jump()
    }

    fn go_active(&mut self) -> Reached<'_> {
        uncount(&mut self.parked, "exit_passive");
        self.reached(false)
    }

    /// Registers `wait`: like a sleeper when it has a deadline, which then
    /// takes part in the earliest-deadline computation; like a parked
    /// parent when it has none, so other workers' sleeps can still advance
    /// time while it contributes no deadline of its own.
    fn begin_wait(&mut self, wait: &mut Wait<'_>) -> Reached<'_> {
        match wait.deadline {
            Some(deadline) => {
                wait.token = self.next_token;
                self.next_token += 1;
                self.sleepers
                    .push((wait.token, deadline, Arc::clone(wait.parker)));
                self.worker_sleepers += usize::from(wait.is_worker);
            }
            None => self.parked += usize::from(wait.is_worker),
        }
        self.jump()
    }

    /// Whether the thread of `wait` — just registered, or back from its
    /// parker for a reason or none — blocks on it (again), given the
    /// `ready` it read in this lock hold.
    fn parks(&self, wait: &mut Wait<'_>, ready: bool) -> bool {
        if wait.parked {
            wait.parker.parked.fetch_sub(1, Ordering::Relaxed);
        }
        wait.parked = !ready && wait.deadline.is_none_or(|deadline| self.now < deadline);
        if wait.parked {
            wait.parker.parked.fetch_add(1, Ordering::Relaxed);
        }
        wait.parked
    }

    fn end_wait(&mut self, wait: &Wait<'_>) -> Reached<'_> {
        match wait.deadline {
            Some(_) => {
                self.sleepers.retain(|&(token, ..)| token != wait.token);
                self.worker_sleepers -= usize::from(wait.is_worker);
            }
            None if wait.is_worker => uncount(&mut self.parked, "the end of a wait"),
            None => {}
        }
        // A woken bystander leaving the sleeper set can unblock the
        // remaining sleepers (their earliest deadline just changed); a
        // woken worker re-entering computation makes the condition false,
        // so re-checking here is always safe.
        self.jump()
    }

    fn advance(&mut self, duration: Duration) -> Reached<'_> {
        self.now = self.now.saturating_add(duration);
        self.reached(true)
    }

    /// Jumps to the earliest waiting deadline if no worker can make
    /// progress, and returns whom that reached. Every transition that
    /// could block progress ends with it.
    fn jump(&mut self) -> Reached<'_> {
        let blocked = self.worker_sleepers + self.parked >= self.workers;
        let waiters = if blocked { &self.sleepers[..] } else { &[] };
        // A deadline at or before `now` belongs to a waiter that has been
        // woken but has not yet removed itself; it will re-trigger the
        // jump when it next blocks or exits.
        match waiters.iter().map(|(_, due, _)| *due).min() {
            Some(earliest) if earliest > self.now => {
                self.now = earliest;
                self.reached(true)
            }
            _ => self.reached(false),
        }
    }

    /// Where `now` stands, and — when it has `moved` — the waiters it
    /// reached.
    fn reached(&self, moved: bool) -> Reached<'_> {
        let waiters = if moved { &self.sleepers[..] } else { &[] };
        Reached {
            now: self.now,
            waiters: waiters.iter(),
        }
    }
}

/// Deterministic simulated time (see the module docs for the wait
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
    /// `state.now` in nanoseconds, published by [`VirtualClock::settle`]
    /// after every transition, so [`Clock::now`] reads it without the
    /// lock. It only ever trails the locked value, and only within the
    /// lock hold that moves it. [`PAST_U64_NANOS`] stands for a `now` the
    /// mirror cannot hold.
    now_nanos: AtomicU64,
}

/// The mirror's value for a `now` past `u64::MAX` nanoseconds (about 584
/// years), which only the locked state holds exactly.
const PAST_U64_NANOS: u64 = u64::MAX;

impl VirtualClock {
    /// Creates a virtual clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock {
            id: NEXT_CLOCK_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::default(),
            now_nanos: AtomicU64::new(0),
        }
    }

    /// Advances virtual time by `duration`, waking any sleeper whose
    /// deadline is reached. Use this from tests to move through scheduled
    /// fault windows without invoking anything.
    pub fn advance(&self, duration: Duration) {
        self.settle(self.lock().advance(duration));
    }

    fn lock(&self) -> MutexGuard<'_, VcState> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.holds += 1;
        state
    }

    /// Holds of the clock's lock so far (see `VcState::holds`); reading
    /// them takes one more, uncounted.
    #[cfg(test)]
    pub(crate) fn lock_holds(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .holds
    }

    /// The shell's half of every transition, called with the lock still
    /// held (`self.settle(self.lock().release())`): publishes where `now`
    /// stands, then notifies whom the move reached — so a woken thread,
    /// which re-takes the lock, reads at least the `now` that woke it.
    fn settle(&self, reached: Reached<'_>) {
        let nanos = u64::try_from(reached.now.as_nanos()).unwrap_or(PAST_U64_NANOS);
        self.now_nanos.store(nanos, Ordering::Release);
        notify(reached);
    }

    /// The one way to wait: on `parker`, until `ready()` or the deadline
    /// that `deadline` makes of `now` — read in the lock hold that
    /// registers the wait, so no jump can fall between the two.
    fn wait(
        &self,
        parker: &Arc<Parker>,
        deadline: impl FnOnce(Duration) -> Option<Duration>,
        ready: &dyn Fn() -> bool,
    ) {
        let is_worker = self.thread_is_worker();
        let mut state = self.lock();
        let mut wait = Wait {
            parker,
            deadline: deadline(state.now),
            is_worker,
            token: 0,
            parked: false,
        };
        self.settle(state.begin_wait(&mut wait));
        while state.parks(&mut wait, ready()) {
            state = parker
                .condvar
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.settle(state.end_wait(&wait));
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        VirtualClock::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        match self.now_nanos.load(Ordering::Acquire) {
            PAST_U64_NANOS => self.lock().now,
            nanos => Duration::from_nanos(nanos),
        }
    }

    fn sleep(&self, duration: Duration) {
        if duration.is_zero() {
            return;
        }
        let parker = Parker::of_this_thread(self);
        self.wait(&parker, |now| Some(now.saturating_add(duration)), &|| false);
    }

    fn reserve_worker(&self) {
        self.settle(self.lock().reserve());
    }

    fn adopt_worker(&self) {
        WORKER_DEPTH.with(|depths| {
            let mut depths = depths.borrow_mut();
            match depths.iter_mut().find(|(id, _)| *id == self.id) {
                Some((_, depth)) => *depth += 1,
                None => depths.push((self.id, 1)),
            }
        });
    }

    fn disown_worker(&self) {
        WORKER_DEPTH.with(|depths| {
            let mut depths = depths.borrow_mut();
            if let Some(at) = depths.iter().position(|(id, _)| *id == self.id) {
                depths[at].1 -= 1;
                if depths[at].1 == 0 {
                    depths.swap_remove(at);
                }
            }
        });
    }

    fn release_worker(&self) {
        self.settle(self.lock().release());
    }

    fn enter_passive(&self) {
        self.settle(self.lock().go_passive());
    }

    fn exit_passive(&self) {
        self.settle(self.lock().go_active());
    }

    fn thread_is_worker(&self) -> bool {
        WORKER_DEPTH.with(|depths| depths.borrow().iter().any(|(id, _)| *id == self.id))
    }

    fn sleep_until_or(
        &self,
        parker: &Arc<Parker>,
        deadline: Option<Duration>,
        ready: &dyn Fn() -> bool,
    ) {
        self.wait(parker, |_| deadline, ready);
    }

    fn notify_sleepers(&self, parker: &Parker) {
        let _state = self.lock();
        notify(parker.post());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    mod model;

    /// What [`WorkerGuard::enter`] does, for a test that deregisters on
    /// another line, or thread, than it registered on.
    fn enter_worker(clock: &VirtualClock) {
        clock.reserve_worker();
        clock.adopt_worker();
    }

    /// What dropping a [`WorkerGuard`] does.
    fn exit_worker(clock: &VirtualClock) {
        clock.disown_worker();
        clock.release_worker();
    }

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

    /// `now` reads the mirror without the lock: two readers race a thread
    /// that `advance`s and a worker whose sleeps make time jump, and
    /// neither ever sees time go back, nor a value the locked state has
    /// not reached yet.
    #[test]
    fn lock_free_now_is_monotone_and_never_ahead_of_the_lock() {
        use std::sync::atomic::AtomicBool;
        let clock = Arc::new(VirtualClock::new());
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (clock, done) = (&clock, &done);
                    scope.spawn(move || {
                        let (mut last, mut reads) = (Duration::ZERO, 0u64);
                        while !done.load(Ordering::Acquire) || reads < 1_000 {
                            let seen = clock.now();
                            let locked = clock.lock().now;
                            assert!(seen >= last, "now went back: {last:?} then {seen:?}");
                            assert!(seen <= locked, "read {seen:?} before the lock had it");
                            (last, reads) = (seen, reads + 1);
                        }
                        last
                    })
                })
                .collect();
            let advancer = scope.spawn(|| {
                for _ in 0..20_000 {
                    clock.advance(Duration::from_nanos(3));
                }
            });
            let sleeper = scope.spawn(|| {
                let _worker = WorkerGuard::enter(&*clock);
                for _ in 0..20_000 {
                    clock.sleep(Duration::from_nanos(5));
                }
            });
            advancer.join().unwrap();
            sleeper.join().unwrap();
            done.store(true, Ordering::Release);
            let end = clock.now();
            assert!(end >= Duration::from_nanos(20_000 * 5), "{end:?}");
            for reader in readers {
                assert!(reader.join().unwrap() <= end);
            }
        });
    }

    /// Past `u64::MAX` nanoseconds the mirror holds the sentinel and `now`
    /// reads the exact value under the lock.
    #[test]
    fn now_past_u64_nanos_reads_exactly_through_the_sentinel() {
        let clock = VirtualClock::new();
        let edge = Duration::from_nanos(u64::MAX);
        clock.advance(edge - Duration::from_nanos(1));
        assert_eq!(clock.now(), edge - Duration::from_nanos(1));
        clock.advance(Duration::from_nanos(1));
        assert_eq!(clock.now(), edge);
        clock.advance(Duration::from_secs(7));
        assert_eq!(clock.now_nanos.load(Ordering::Relaxed), PAST_U64_NANOS);
        assert_eq!(clock.now(), edge + Duration::from_secs(7));
        clock.advance(Duration::MAX);
        assert_eq!(clock.now(), Duration::MAX, "advance saturates");
    }

    #[test]
    fn thread_is_worker_tracks_binding_per_clock() {
        let a = VirtualClock::new();
        let b = VirtualClock::new();
        assert!(!a.thread_is_worker());
        enter_worker(&a);
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
        enter_worker(&clock);
        // The only worker sleeping means nothing else can run: advance.
        clock.sleep(Duration::from_millis(30));
        assert_eq!(clock.now(), Duration::from_millis(30));
        exit_worker(&clock);
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
                    exit_worker(&clock);
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
        enter_worker(&clock); // the "parent" worker
        clock.reserve_worker(); // reserve the child's slot
        let child = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                clock.adopt_worker();
                clock.sleep(Duration::from_millis(40));
                exit_worker(&clock);
            })
        };
        clock.enter_passive();
        child.join().unwrap();
        clock.exit_passive();
        exit_worker(&clock);
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
        enter_worker(&clock);
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
        exit_worker(&clock);
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
        enter_worker(&clock);
        // Sole worker waiting on a scheduled event: time jumps there.
        clock.sleep_until_or(&Arc::default(), Some(Duration::from_millis(25)), &|| false);
        assert_eq!(clock.now(), Duration::from_millis(25));
        exit_worker(&clock);
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
        enter_worker(&clock); // the idle "event loop" worker
        clock.reserve_worker(); // a blocking leg's slot
        let leg = {
            let clock = Arc::clone(&clock);
            let done = Arc::clone(&done);
            let parker = Arc::clone(&parker);
            std::thread::spawn(move || {
                clock.adopt_worker();
                clock.sleep(Duration::from_millis(40));
                done.store(true, Ordering::SeqCst);
                exit_worker(&clock);
                clock.notify_sleepers(&parker);
            })
        };
        // The loop has no timers (deadline None); its parked-style wait
        // must let the leg's sleep drive time to 40 ms.
        clock.sleep_until_or(&parker, None, &|| done.load(Ordering::SeqCst));
        assert_eq!(clock.now(), Duration::from_millis(40));
        leg.join().unwrap();
        exit_worker(&clock);
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
        assert_eq!(
            (state.workers, state.parked, state.sleepers.len()),
            (0, 0, 0)
        );
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

    /// Three registered threads wait to 5, 5 and 9 ms: in `Clock::sleep`,
    /// each on its thread's own parker, or else as drivers in
    /// `sleep_until_or`, each on a parker of its own.
    fn a_time_jump_wakes_exactly_the_waiters_it_reaches(in_sleep: bool) {
        use std::sync::mpsc;
        let ms = Duration::from_millis;
        let clock = Arc::new(VirtualClock::new());
        enter_worker(&clock); // this thread: runnable, so time holds at 0
        let (woke, wakes) = mpsc::channel();
        let drivers: Vec<_> = [5, 5, 9]
            .into_iter()
            .enumerate()
            .map(|(i, deadline)| {
                let (parks_on, parker) = mpsc::channel();
                let (go, held) = mpsc::channel::<()>();
                clock.reserve_worker();
                let thread = {
                    let (clock, woke) = (Arc::clone(&clock), woke.clone());
                    std::thread::spawn(move || {
                        clock.adopt_worker();
                        if in_sleep {
                            parks_on.send(Parker::of_this_thread(&*clock)).unwrap();
                            // Time holds at zero until all three sleep:
                            // the deadlines are the durations.
                            clock.sleep(ms(deadline));
                        } else {
                            let parker = Arc::new(Parker::default());
                            parks_on.send(Arc::clone(&parker)).unwrap();
                            clock.sleep_until_or(&parker, Some(ms(deadline)), &|| false);
                        }
                        woke.send((i, clock.now())).unwrap();
                        // Registered and not in the clock: runnable, as
                        // far as virtual time can tell.
                        held.recv().unwrap();
                        exit_worker(&clock);
                        woke.send((i, clock.now())).unwrap();
                    })
                };
                let parker: Arc<Parker> = parker.recv().unwrap();
                spin_until("the waiter never parked", || {
                    parker.parked.load(Ordering::SeqCst) == 1
                });
                (parker, go, thread)
            })
            .collect();
        let sent = || -> Vec<u64> { drivers.iter().map(|d| d.0.wakes()).collect() };
        let next = || wakes.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!((clock.now(), sent()), (Duration::ZERO, vec![0, 0, 0]));

        // The last runnable worker leaves: one jump, to the earliest
        // deadline, notifying the two waiters due then and not the third.
        exit_worker(&clock);
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
    fn a_time_jump_wakes_exactly_the_drivers_it_reaches() {
        a_time_jump_wakes_exactly_the_waiters_it_reaches(false);
    }

    /// The third `sleep`er is sent no wake-up by the jump that serves the
    /// other two (they all shared one condvar once).
    #[test]
    fn a_time_jump_wakes_exactly_the_sleepers_it_reaches() {
        a_time_jump_wakes_exactly_the_waiters_it_reaches(true);
    }

    #[test]
    fn one_jump_wakes_a_sleeper_and_a_driver_due_together() {
        let clock = Arc::new(VirtualClock::new());
        let parker = Arc::new(Parker::default());
        let deadline = Duration::from_millis(7);
        enter_worker(&clock);
        clock.reserve_worker();
        clock.reserve_worker();
        let (parks_on, own) = std::sync::mpsc::channel();
        let sleeper = {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                clock.adopt_worker();
                parks_on.send(Parker::of_this_thread(&*clock)).unwrap();
                clock.sleep(deadline);
                let woke_at = clock.now();
                exit_worker(&clock);
                woke_at
            })
        };
        let driver = {
            let (clock, parker) = (Arc::clone(&clock), Arc::clone(&parker));
            std::thread::spawn(move || {
                clock.adopt_worker();
                clock.sleep_until_or(&parker, Some(deadline), &|| false);
                let woke_at = clock.now();
                exit_worker(&clock);
                woke_at
            })
        };
        let own: Arc<Parker> = own.recv().unwrap();
        spin_until("both never parked", || {
            own.parked.load(Ordering::SeqCst) == 1 && parker.parked.load(Ordering::SeqCst) == 1
        });
        assert_eq!(clock.now(), Duration::ZERO);
        exit_worker(&clock);
        assert_eq!((clock.now(), own.wakes(), parker.wakes()), (deadline, 1, 1));
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
            // Where this thread's `sleep` parked, if it did.
            let waiting = Parker::of_this_thread(clock).parked.load(Ordering::Relaxed);
            (
                s.now,
                s.workers,
                s.parked,
                s.worker_sleepers,
                sleepers,
                s.next_token,
                waiting,
            )
        }
        let clock = VirtualClock::new();
        enter_worker(&clock);
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
        exit_worker(&clock);

        let wall = WallClock::new();
        wall.notify_sleepers(&parker);
        assert_eq!(
            (parker.parked.load(Ordering::Relaxed), parker.wakes()),
            (0, 0)
        );
    }

    /// The whole workspace's suites run without tripping it, so nothing
    /// leans on the saturation a release build keeps.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release_worker without its counterpart")]
    fn an_unbalanced_release_is_loud_under_debug_assertions() {
        VirtualClock::new().release_worker();
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
        enter_worker(&a);
        // The thread is a worker of `a` only: `b` sees an unregistered
        // sleep and advances instantly.
        b.sleep(Duration::from_millis(9));
        assert_eq!(b.now(), Duration::from_millis(9));
        exit_worker(&a);
    }
}
