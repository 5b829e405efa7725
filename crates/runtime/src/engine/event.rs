//! The event-driven execution core: strategy walks as explicit heap
//! frames plus completion events on the [`Clock`], instead of one parked
//! OS thread per running leg.
//!
//! A running request is a small state machine:
//!
//! * every started `Seq`/`Par` node is a [`Frame`] in a per-request arena
//!   (frames are never removed until the request resolves, so the arena's
//!   high-water mark is the request's true memory footprint, and the core
//!   then keeps the emptied arena for its next request); a frame
//!   stores only its `(parent frame, ordinal)` link, and the strategy node
//!   it stands for is re-derived from that chain when a child starts;
//! * every leaf invocation is either a **timed completion event** — the
//!   provider pre-computes `(latency, result)` via
//!   [`Provider::try_timed_invoke`] and the core schedules the completion
//!   on its timers — or, for providers that must really block
//!   (capacity limits, foreign clocks, arbitrary closures), a
//!   [`BlockingTask`] handed to a spawner, which posts the completion back
//!   to the ready queue when the call returns.
//!
//! One [`EventCore`] can hold any number of concurrent requests; one (or
//! N) driver threads drain it via [`EventCore::run_loop`] /
//! [`EventCore::drive_request`]. Events are processed in a deterministic
//! order — the ready queue FIFO first, then due timers by deadline, those
//! sharing a deadline in schedule order (one FIFO run per instant, see
//! [`Timers`]) — so a single-driver core on a
//! [`VirtualClock`](crate::VirtualClock) replays bit-identically.
//!
//! # Clock discipline
//!
//! The driver holds one worker slot (its caller's
//! [`WorkerGuard`](crate::WorkerGuard) or its own). While idle it waits in
//! [`Clock::sleep_until_or`] — like a sleeper when a timer is armed, like
//! a passive parent otherwise — so virtual time advances exactly to the
//! next scheduled completion and never past it. A blocking leaf reserves a
//! worker slot *before* its task is spawned (so time cannot slip while the
//! task is in flight to a thread), binds it for the duration of the
//! provider call, and then leaves the slot **orphaned** — reserved but
//! unbound — while the completion event travels through the ready queue.
//! An orphaned slot pins virtual time, which is what makes the latency
//! and decision timestamps the driver records identical to the ones the
//! old thread-per-leg walker read on the leg's own thread. The driver
//! releases the slot after it has processed the completion (and after any
//! new reservations that processing made).
//!
//! # Machine and shell
//!
//! Who wakes whom is split the way the clock and the admission gate are.
//! [`Agenda`] decides, with no lock, clock or parker: it holds the ready
//! queue, the timer runs, the wake signal's armed bit and the shutdown
//! flag, and each of its steps returns the [`Effect`] it owes the clock
//! and the parker. [`EventCore`] is the shell: it takes the core lock,
//! steps, applies a reserve and the signal's mirror before it unlocks and
//! the notify, releases and handle wakes after (DESIGN §15 has the table).
//! A driver keeps one hold from turn to turn while nothing waits for the
//! unlock, and a submission, made by the core's running driver, wakes
//! nobody.

use std::any::Any;
use std::borrow::Cow;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::Waker;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

use qce_strategy::{Node, Strategy};

use crate::clock::{Clock, Parker};
use crate::collector::{Collector, ExecutionRecord, ProviderWindow};
use crate::device::Provider;
use crate::message::{Invocation, InvocationOutcome, InvokeError};
use crate::telemetry::{Scope, Telemetry};

use super::budget::Budget;
use super::policy::PolicyState;
use super::{EngineOutcome, EngineStats};

/// A caught provider panic, re-raised on the submitter.
pub(crate) type PanicPayload = Box<dyn Any + Send + 'static>;

/// Per-request completion callback, run by the driver outside the core
/// lock once the request resolves. It returns the wake-up it owes a thread
/// parked on the result, if one is; the driver sends it (see [`Wakes`]).
/// A closure is one; a type of the embedder's can be one too, and then the
/// box its task ran in can carry the request on (the gateway's `Flight`).
pub(crate) trait OnDone: Send {
    fn done(self: Box<Self>, result: RequestResult) -> Option<Waker>;
}

impl<F: FnOnce(RequestResult) -> Option<Waker> + Send> OnDone for F {
    fn done(self: Box<Self>, result: RequestResult) -> Option<Waker> {
        (*self)(result)
    }
}

/// A boxed [`OnDone`].
pub(crate) type DoneFn<'env> = Box<dyn OnDone + 'env>;

/// Where a resolved request's [`RequestResult`] goes.
pub(crate) enum Done<'env> {
    /// The submitter drives the core itself: the result is parked in the
    /// request's slot and [`EventCore::drive_request`] returns it.
    Park,
    /// Someone else drives (the gateway's event loops): the driver hands
    /// the result to this callback.
    Call(DoneFn<'env>),
}

/// An embedder thunk queued on the core (admission grants, queue-deadline
/// cancellations). Runs on the driver thread, outside the core lock. A
/// closure is one; so is the gateway's `Flight`, which is also its
/// request's [`OnDone`].
pub(crate) trait Task: Send {
    fn run(self: Box<Self>);
}

impl<F: FnOnce() + Send> Task for F {
    fn run(self: Box<Self>) {
        (*self)();
    }
}

/// A boxed [`Task`].
pub(crate) type TaskFn<'env> = Box<dyn Task + 'env>;

/// Either a borrow (scoped execution) or shared ownership (engine /
/// gateway execution) of one piece of request state. Lets one state
/// machine serve both the borrowing and the owning entry points.
pub(crate) enum Shared<'env, T: ?Sized> {
    /// Borrowed from the caller for the core's lifetime.
    Borrowed(&'env T),
    /// Owned via `Arc` (the `'static` entry points).
    Owned(Arc<T>),
}

impl<T: ?Sized> Deref for Shared<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Shared::Borrowed(t) => t,
            Shared::Owned(t) => t,
        }
    }
}

/// How one request ended.
pub(crate) enum RequestResult {
    /// The walk ran to a policy decision (or exhaustion).
    Finished(EngineOutcome),
    /// A provider panicked; the payload must be resumed on the submitter.
    Panicked(PanicPayload),
    /// The core was shut down while the request was in flight.
    Shutdown,
}

impl std::fmt::Debug for RequestResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestResult::Finished(outcome) => f.debug_tuple("Finished").field(outcome).finish(),
            RequestResult::Panicked(_) => f.write_str("Panicked(..)"),
            RequestResult::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// Where the legs run on one provider record: handles on its collector
/// window and its telemetry counters, each resolved by the first leg that
/// records (so a provider enters the collector and the snapshots exactly
/// when it did while every leg looked them up by name) and reused by every
/// later leg. A sink belongs to one collector and one telemetry hub: a
/// slot plan's sinks serve only its gateway's requests, and the
/// gateway-free doors build theirs per call.
#[derive(Default)]
pub(crate) struct LegSink {
    window: OnceLock<Arc<ProviderWindow>>,
    metrics: OnceLock<Arc<Scope>>,
}

impl LegSink {
    /// One sink per provider of `providers`, aligned with it.
    pub(crate) fn aligned(providers: &[Arc<dyn Provider>]) -> Box<[LegSink]> {
        providers.iter().map(|_| LegSink::default()).collect()
    }

    /// Records a completed leg on `provider`: into `collector`, then into
    /// `telemetry`, each when present.
    fn record(
        &self,
        provider: &str,
        collector: Option<&Collector>,
        telemetry: Option<&Telemetry>,
        record: ExecutionRecord,
    ) {
        if let Some(collector) = collector {
            let window = self
                .window
                .get_or_init(|| collector.provider_window(provider));
            window.push(record);
        }
        if let Some(telemetry) = telemetry {
            let metrics = self
                .metrics
                .get_or_init(|| telemetry.provider_metrics(provider));
            metrics.count_invocation(record.success, record.latency, record.cost);
        }
    }
}

/// What a request reads of its plan and never changes: the strategy, the
/// providers its leaves name, where each provider's legs record, and the
/// collector and telemetry hub they record into. A request holds one
/// handle on it: the gateway's slot plan is one, shared by every request
/// of the slot, and `execute_scoped` builds a [`BorrowedPlan`] from its
/// arguments.
pub(crate) trait Plan: Send + Sync {
    fn strategy(&self) -> &Strategy;
    fn providers(&self) -> &[Arc<dyn Provider>];
    /// Where each provider's legs record, aligned with `providers`.
    fn sinks(&self) -> &[LegSink];
    fn collector(&self) -> Option<&Collector>;
    fn telemetry(&self) -> Option<&Telemetry>;
}

/// A [`Plan`] over borrowed inputs, with sinks of its own.
pub(crate) struct BorrowedPlan<'a> {
    pub strategy: &'a Strategy,
    pub providers: &'a [Arc<dyn Provider>],
    pub sinks: Box<[LegSink]>,
    pub collector: Option<&'a Collector>,
    pub telemetry: Option<&'a Telemetry>,
}

impl Plan for BorrowedPlan<'_> {
    fn strategy(&self) -> &Strategy {
        self.strategy
    }

    fn providers(&self) -> &[Arc<dyn Provider>] {
        self.providers
    }

    fn sinks(&self) -> &[LegSink] {
        &self.sinks
    }

    fn collector(&self) -> Option<&Collector> {
        self.collector
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry
    }
}

/// A [`Plan`] that owns its inputs, for a test's `'static` request.
#[cfg(test)]
pub(crate) struct OwnedPlan {
    strategy: Strategy,
    providers: Vec<Arc<dyn Provider>>,
    sinks: Box<[LegSink]>,
}

#[cfg(test)]
impl OwnedPlan {
    pub(crate) fn new(strategy: Strategy, providers: Vec<Arc<dyn Provider>>) -> Self {
        let sinks = LegSink::aligned(&providers);
        OwnedPlan {
            strategy,
            providers,
            sinks,
        }
    }
}

#[cfg(test)]
impl Plan for OwnedPlan {
    fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    fn providers(&self) -> &[Arc<dyn Provider>] {
        &self.providers
    }

    fn sinks(&self) -> &[LegSink] {
        &self.sinks
    }

    fn collector(&self) -> Option<&Collector> {
        None
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        None
    }
}

/// Everything one request needs. This is the crate's own request form:
/// the public entry points build it from their arguments, and the gateway
/// builds it directly from a slot's shared plan (no per-request copy of
/// the strategy, the providers or their sinks, and one reference count
/// for all of them).
pub(crate) struct RequestSpec<'env> {
    pub plan: Shared<'env, dyn Plan + 'env>,
    pub request: Cow<'env, Invocation>,
    pub budget: Budget,
    pub policy: PolicyState,
    /// Whether [`EngineOutcome::invocations`] is wanted. Every public
    /// entry point returns the records and sets this; the gateway reads
    /// only the total cost, so its requests skip building them (two
    /// `String`s and a payload copy per leaf).
    pub record_invocations: bool,
    pub done: Done<'env>,
}

/// Handle of one request in an [`EventCore`]: its slot and the slot's
/// generation when the request was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReqId {
    index: u32,
    generation: u32,
}

enum SlotEntry<T> {
    /// On the free list, linking to the next free slot.
    Free { next: Option<u32> },
    /// Occupied since the `seq`-th insertion.
    Live { seq: u64, value: T },
}

struct Slot<T> {
    /// Bumped every time the slot is freed, so an id handed out for an
    /// earlier occupant resolves to nothing — a blocking leg's late
    /// `LeafEvent` must never reach the request that reused its slot.
    generation: u32,
    entry: SlotEntry<T>,
}

/// The in-flight table: a slot vector with an intrusive free list. A new
/// core pays one allocation of one slot for it (an ordered map's first
/// node is sized for eleven entries), a core that serves request after
/// request reuses its slots, and lookup is an index plus a generation
/// compare.
struct Slots<T> {
    slots: Vec<Slot<T>>,
    free: Option<u32>,
    live: usize,
    next_seq: u64,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            slots: Vec::new(),
            free: None,
            live: 0,
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, value: T) -> ReqId {
        let entry = SlotEntry::Live {
            seq: self.next_seq,
            value,
        };
        self.next_seq += 1;
        self.live += 1;
        let index = match self.free {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                if let SlotEntry::Free { next } = slot.entry {
                    self.free = next;
                }
                slot.entry = entry;
                index
            }
            None => {
                let index = u32::try_from(self.slots.len())
                    .expect("fewer than 2^32 requests are in flight at once");
                self.slots.push(Slot {
                    generation: 0,
                    entry,
                });
                index
            }
        };
        ReqId {
            index,
            generation: self.slots[index as usize].generation,
        }
    }

    fn get(&self, id: ReqId) -> Option<&T> {
        match self.slots.get(id.index as usize) {
            Some(Slot {
                generation,
                entry: SlotEntry::Live { value, .. },
            }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    fn get_mut(&mut self, id: ReqId) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot {
                generation,
                entry: SlotEntry::Live { value, .. },
            }) if *generation == id.generation => Some(value),
            _ => None,
        }
    }

    fn remove(&mut self, id: ReqId) -> Option<T> {
        self.get(id)?;
        Some(self.free_slot(id.index))
    }

    /// Frees the occupied slot `index`, returning its value.
    fn free_slot(&mut self, index: u32) -> T {
        let slot = &mut self.slots[index as usize];
        let freed = SlotEntry::Free { next: self.free };
        let SlotEntry::Live { value, .. } = std::mem::replace(&mut slot.entry, freed) else {
            unreachable!("free_slot is only called on occupied slots");
        };
        slot.generation = slot.generation.wrapping_add(1);
        self.free = Some(index);
        self.live -= 1;
        value
    }

    /// Visits every entry in insertion order (slot order is not: a reused
    /// slot puts a later request below an earlier one) and frees the ones
    /// `keep` rejects.
    fn retain_in_order(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        let mut order: Vec<(u64, u32)> = (0u32..)
            .zip(&self.slots)
            .filter_map(|(index, slot)| match slot.entry {
                SlotEntry::Live { seq, .. } => Some((seq, index)),
                SlotEntry::Free { .. } => None,
            })
            .collect();
        order.sort_unstable();
        for (_, index) in order {
            if let SlotEntry::Live { value, .. } = &mut self.slots[index as usize].entry {
                if !keep(value) {
                    drop(self.free_slot(index));
                }
            }
        }
    }
}

/// A leaf invocation that must run on a real thread: the provider either
/// declined [`Provider::try_timed_invoke`] (capacity limit, foreign clock)
/// or does not implement it (arbitrary closures). The worker slot for the
/// task was already reserved when it was created.
pub(crate) struct BlockingTask {
    req: ReqId,
    parent: Option<(usize, usize)>,
    provider_index: usize,
    provider: Arc<dyn Provider>,
    invocation: Invocation,
}

/// Runs a [`BlockingTask`] to completion on the calling thread: binds the
/// reserved worker slot, invokes the provider and reads its cost (catching
/// panics), unbinds, and posts the completion event. The slot stays
/// reserved — orphaned — until the driver processes the event, pinning
/// virtual time at the completion instant.
pub(crate) fn run_blocking(core: &EventCore<'_>, task: BlockingTask) {
    let clock = core.clock();
    clock.adopt_worker();
    let t0 = clock.now();
    let leg = || (task.provider.invoke(&task.invocation), task.provider.cost());
    let result = match catch_unwind(AssertUnwindSafe(leg)) {
        Ok((result, cost)) => LeafOutcome::Completed(result, cost),
        Err(panic) => LeafOutcome::Panicked(panic),
    };
    clock.disown_worker();
    core.post(Event::Leaf(LeafEvent {
        req: task.req,
        parent: task.parent,
        provider_index: task.provider_index,
        t0,
        declared: None,
        result,
        orphan_slot: true,
    }));
}

/// A leaf's [`Provider::try_timed_invoke`] and cost, with a panic in either
/// as the leg's outcome: due at once, as a blocking leg's panic comes back
/// from [`run_blocking`].
fn timed_leg(
    provider: &dyn Provider,
    request: &Invocation,
    clock: &dyn Clock,
) -> Option<(Duration, LeafOutcome)> {
    match catch_unwind(AssertUnwindSafe(|| {
        let (latency, result) = provider.try_timed_invoke(request, clock)?;
        Some((latency, LeafOutcome::Completed(result, provider.cost())))
    })) {
        Ok(timed) => timed,
        Err(panic) => Some((Duration::ZERO, LeafOutcome::Panicked(panic))),
    }
}

/// What a completed leaf reports back; its cost is read with it, under the leg's `catch_unwind`.
enum LeafOutcome {
    Completed(Result<Vec<u8>, InvokeError>, f64),
    Panicked(PanicPayload),
}

/// A leaf completion travelling to the driver.
struct LeafEvent {
    req: ReqId,
    parent: Option<(usize, usize)>,
    provider_index: usize,
    t0: Duration,
    /// The latency the provider declared for a timed leaf. Blocking legs
    /// (`None`) measure `now - t0` on the driver instead. Timed legs must
    /// carry the declared value: their timer deadline is
    /// `t0.saturating_add(latency)`, and once that clamps (a deadline at
    /// the far end of `Duration`), `now - t0` under-reports by `t0` —
    /// records, histograms, and the policy would see a latency the
    /// provider never declared.
    declared: Option<Duration>,
    result: LeafOutcome,
    /// Whether a reserved-but-unbound worker slot rides with this event
    /// (blocking legs only); the driver releases it after processing.
    orphan_slot: bool,
}

enum Event<'env> {
    Leaf(LeafEvent),
    Task(TaskFn<'env>),
}

impl Event<'_> {
    fn orphan_slot(&self) -> bool {
        matches!(self, Event::Leaf(leaf) if leaf.orphan_slot)
    }
}

/// No slab entry: the end of a run's chain, or of the free list.
const NIL: u32 = u32::MAX;

/// The pending timers, one FIFO run per distinct deadline. Timers are
/// appended to their deadline's run in schedule order, so popping the
/// front of the earliest run yields the `(deadline, schedule-order)` order
/// with no comparison between timers that share an instant — on a clock
/// with whole-millisecond latencies, nearly all of them. A run owns no
/// allocation: every pending event lives in one slab, chained through it
/// run by run, and a freed entry goes on a free list, so the slab grows
/// only to the core's high-water mark of pending timers. The earliest run
/// is kept out of the ordered map, so a core with one pending deadline at
/// a time (a blocking chain) never touches the map.
#[derive(Clone)]
struct Timers<E> {
    /// The earliest run; `None` only when no timer is pending.
    first: Option<(Duration, Run)>,
    /// Every later run, by deadline.
    later: BTreeMap<Duration, Run>,
    slab: Vec<Link<E>>,
    /// The first free slab entry, chained through `next`.
    free: u32,
    len: usize,
    /// High-water marks of pending timers and of pending runs.
    peak: usize,
    runs_peak: usize,
}

/// One deadline's timers: the first and last slab entry of its chain.
#[derive(Clone, Copy)]
struct Run {
    head: u32,
    tail: u32,
}

impl Run {
    fn one(index: u32) -> Self {
        Run {
            head: index,
            tail: index,
        }
    }
}

/// A slab entry: a pending event and the next entry of its run, or a free
/// entry and the next free one.
#[derive(Clone)]
struct Link<E> {
    event: Option<E>,
    next: u32,
}

impl<E> Timers<E> {
    fn new() -> Self {
        Timers {
            first: None,
            later: BTreeMap::new(),
            slab: Vec::new(),
            free: NIL,
            len: 0,
            peak: 0,
            runs_peak: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The earliest pending deadline.
    fn earliest(&self) -> Option<Duration> {
        self.first.map(|(deadline, _)| deadline)
    }

    /// Appends `event` to the run of `deadline`.
    fn push(&mut self, deadline: Duration, event: E) {
        let link = Link {
            event: Some(event),
            next: NIL,
        };
        let index = match self.free {
            NIL => {
                let index = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&index| index != NIL)
                    .expect("fewer than 2^32 - 1 timers are pending at once");
                self.slab.push(link);
                index
            }
            index => {
                let entry = &mut self.slab[index as usize];
                self.free = std::mem::replace(entry, link).next;
                index
            }
        };
        let run = match &mut self.first {
            Some((first, run)) if *first == deadline => Some(run),
            Some((first, _)) if *first < deadline => match self.later.entry(deadline) {
                MapEntry::Occupied(run) => Some(run.into_mut()),
                MapEntry::Vacant(run) => {
                    run.insert(Run::one(index));
                    None
                }
            },
            first => {
                if let Some((deadline, run)) = first.replace((deadline, Run::one(index))) {
                    self.later.insert(deadline, run);
                }
                None
            }
        };
        match run {
            Some(run) => {
                self.slab[run.tail as usize].next = index;
                run.tail = index;
            }
            None => self.runs_peak = self.runs_peak.max(1 + self.later.len()),
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Pops the front of the earliest run if its deadline is at or before
    /// `now`.
    fn pop_due(&mut self, now: Duration) -> Option<E> {
        let (_, run) = self.first.as_mut().filter(|(first, _)| *first <= now)?;
        let index = run.head;
        let entry = &mut self.slab[index as usize];
        let event = entry.event.take();
        let next = std::mem::replace(&mut entry.next, self.free);
        self.free = index;
        self.len -= 1;
        if next == NIL {
            self.first = self.later.pop_first();
        } else {
            run.head = next;
        }
        event
    }

    /// Drops every pending timer; the slab keeps its capacity.
    fn clear(&mut self) {
        self.first = None;
        self.later.clear();
        self.slab.clear();
        self.free = NIL;
        self.len = 0;
    }

    /// Every pending timer's deadline and event, in pop order.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (Duration, &E)> + '_ {
        let runs = self.first.iter().map(|&(deadline, run)| (deadline, run));
        let runs = runs.chain(self.later.iter().map(|(&deadline, &run)| (deadline, run)));
        runs.flat_map(move |(deadline, run)| {
            let mut index = run.head;
            std::iter::from_fn(move || {
                let link = self.slab.get(index as usize)?;
                index = link.next;
                link.event.as_ref().map(|event| (deadline, event))
            })
        })
    }
}

/// The status a resolved subtree delivers to its parent frame — the
/// event-model twin of the old walker's `NodeStatus`, plus panics (which
/// the thread model expressed by unwinding).
enum Status {
    Succeeded,
    Failed,
    Cancelled,
    Panicked(PanicPayload),
}

/// A started `Seq`/`Par` node. 64 bytes against the old model's one OS
/// thread (8 KiB stack minimum) per running leg.
struct Frame {
    /// The frame this node is a child of and its ordinal there (`None` =
    /// the strategy root). The chain of these links is also the node's
    /// position in the strategy tree (see [`node_at`]).
    parent: Option<(usize, usize)>,
    kind: FrameKind,
}

enum FrameKind {
    /// A sequential chain: `next` is the next child to start.
    Seq { next: usize, len: usize },
    /// A parallel fan-out waiting on `pending` children. Mirrors the
    /// walker's join-then-fold: every child (panicked or not) is awaited,
    /// then the lowest-ordinal panic wins, else success, else
    /// cancellation, else failure.
    Par {
        pending: usize,
        succeeded: bool,
        cancelled: bool,
        panicked: Option<(usize, PanicPayload)>,
    },
    /// Resolved; kept in the arena until the request completes so frame
    /// accounting reflects true per-request memory.
    Resolved,
}

/// One in-flight request.
struct RequestState<'env> {
    plan: Shared<'env, dyn Plan + 'env>,
    request: Cow<'env, Invocation>,
    budget: Budget,
    policy: PolicyState,
    started_at: Duration,
    /// Cost charged so far, added up in completion order. Starts at
    /// `-0.0`, not `0.0`: the total is by definition
    /// `invocations.iter().map(cost).sum()`, and `Iterator::sum::<f64>()`
    /// folds from `-0.0`, which is therefore what a request that started
    /// no invocation (budget tripped before its first leaf) reports.
    cost: f64,
    /// The started invocations' records, when the submitter wants them
    /// ([`RequestSpec::record_invocations`]).
    invocations: Option<Vec<InvocationOutcome>>,
    pruned: Option<super::PruneDetail>,
    frames: Vec<Frame>,
    done: Done<'env>,
}

/// What a request's slot holds.
// `Running` is what nearly every occupied slot holds; boxing it would cost
// each request the allocation the slot vector is there to save.
#[allow(clippy::large_enum_variant)]
enum Entry<'env> {
    Running(RequestState<'env>),
    /// A resolved [`Done::Park`] request, waiting for its driver's next
    /// [`EventCore::drive_request`] step to collect it (until then it still
    /// occupies the slot and counts as in flight).
    Parked(RequestResult),
}

impl RequestState<'_> {
    /// The global stop check, applied before starting any leg (identical
    /// to the old walker's): the policy has halted the walk, or the budget
    /// prunes. The first prune is recorded for attribution.
    fn stopped(&mut self, clock: &dyn Clock) -> bool {
        if self.policy.halted() {
            return true;
        }
        if let Some(detail) = self.budget.prune_detail(clock) {
            if self.pruned.is_none() {
                self.pruned = Some(detail);
            }
            return true;
        }
        false
    }
}

/// Frame arenas a core keeps for its next requests. A core with a few
/// requests in flight at once reuses one arena per request; what a wider
/// window resolves beyond this is freed.
const ARENAS_KEPT: usize = 8;

struct CoreState<'env> {
    agenda: Agenda<Event<'env>>,
    requests: Slots<Entry<'env>>,
    /// Resolved requests' frame arenas, cleared, for the next requests to
    /// start with instead of allocating their own; an empty `Vec` is a free
    /// place. Kept inline, so keeping them allocates nothing.
    spare_frames: [Vec<Frame>; ARENAS_KEPT],
    frames_live: usize,
    frames_peak: usize,
    /// The `Seq` frames whose chain a completion released while a timer
    /// was still due at its instant, in release order: they advance once
    /// no timer is due, so an instant's successes are all seen first.
    held: Vec<(ReqId, usize)>,
    /// Set while the driver processes an event that left a timer due at
    /// its instant: a chain the event releases goes on `held`.
    holding: bool,
    /// [`EngineStats::lock_holds`]: counted under the lock it counts, so
    /// counting adds no atomic.
    holds: u64,
}

/// The wake protocol as a pure machine: what is queued, what is scheduled,
/// and whether the drivers were signalled since one last found nothing to
/// do. An armed signal holds one reserved clock slot, so virtual time
/// cannot pass work no driver has picked up yet.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Agenda<E> {
    ready: VecDeque<E>,
    timers: Timers<E>,
    armed: bool,
    shutdown: bool,
}

/// What a step of the [`Agenda`] leaves the shell to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Effect {
    Quiet,
    /// Notify the parker; the signal was armed already.
    Notify,
    /// Armed the signal: reserve its clock slot under the lock, then notify.
    Arm,
    /// The step disarmed the signal: release the slot it held.
    Release,
}

/// What a driver's turn found.
pub(crate) enum Turn<E> {
    /// Process this event: the next ready one, else the next due timer.
    /// The flag tells whether a timer is still due at the turn's instant
    /// after it; while one is, what the event's completion releases waits
    /// (see [`EventCore::step`]).
    Run(E, bool),
    /// Nothing is due: wait to the earliest deadline, or the signal, which
    /// the turn disarmed; the driver's held wake-ups are owed.
    Park(Option<Duration>, Effect),
    Stop,
}

impl<E> Agenda<E> {
    pub(crate) fn new() -> Self {
        Agenda {
            ready: VecDeque::new(),
            timers: Timers::new(),
            armed: false,
            shutdown: false,
        }
    }

    /// Wakes the drivers: arms the signal unless it is armed, and
    /// notifies either way.
    fn rouse(&mut self) -> Effect {
        if std::mem::replace(&mut self.armed, true) {
            Effect::Notify
        } else {
            Effect::Arm
        }
    }

    /// Queues `event` and wakes the drivers. A shut-down core hands the
    /// event back, and still wakes them.
    pub(crate) fn post(&mut self, event: E) -> (Option<E>, Effect) {
        if self.shutdown {
            return (Some(event), self.rouse());
        }
        self.ready.push_back(event);
        (None, self.rouse())
    }

    /// Schedules `event` for `deadline`, the timers' one push. A `waking`
    /// timer wakes the drivers only when it becomes the earliest (a tie is
    /// not earlier): a driver idles only to the earliest deadline, read in
    /// [`Agenda::turn`], so a later timer cannot make its wait too long. A
    /// shut-down core hands the event back.
    pub(crate) fn schedule(
        &mut self,
        deadline: Duration,
        event: E,
        waking: bool,
    ) -> (Option<E>, Effect) {
        if self.shutdown {
            return (Some(event), Effect::Quiet);
        }
        let earliest = self.timers.earliest().is_none_or(|head| deadline < head);
        self.timers.push(deadline, event);
        if !(waking && earliest) {
            return (None, Effect::Quiet);
        }
        (None, self.rouse())
    }

    /// A driver's turn at `now`: the next ready event, else the next due
    /// timer, and whether a timer is due after it. With nothing due it
    /// disarms the signal — in the same step as the look that found
    /// nothing, so no post falls between them — and owes the driver's held
    /// wake-ups, since its wait may end the instant.
    pub(crate) fn turn(&mut self, now: Duration, held: &mut Wakes) -> Turn<E> {
        if self.shutdown {
            return Turn::Stop;
        }
        if let Some(event) = self.ready.pop_front().or_else(|| self.timers.pop_due(now)) {
            let due = self.timers.earliest().is_some_and(|head| head <= now);
            return Turn::Run(event, due);
        }
        held.owed = true;
        Turn::Park(self.timers.earliest(), self.retire())
    }

    /// Closes the agenda: drops the timers, hands back the ready events
    /// and wakes the drivers, whose next turn stops.
    pub(crate) fn shutdown(&mut self) -> (VecDeque<E>, Effect) {
        self.shutdown = true;
        self.timers.clear();
        (std::mem::take(&mut self.ready), self.rouse())
    }

    /// Disarms the signal: what an idle turn, a kept core and a dropped
    /// one do.
    pub(crate) fn retire(&mut self) -> Effect {
        if std::mem::replace(&mut self.armed, false) {
            Effect::Release
        } else {
            Effect::Quiet
        }
    }
}

#[cfg(test)]
impl<E: Clone> Agenda<E> {
    /// Everything that decides the agenda's future: the ready events, the
    /// timers in pop order, and whether it is armed and shut down.
    pub(crate) fn contents(&self) -> (Vec<E>, Vec<(Duration, E)>, bool, bool) {
        let ready = self.ready.iter().cloned().collect();
        let timers = self.timers.iter().map(|(at, event)| (at, event.clone()));
        (ready, timers.collect(), self.armed, self.shutdown)
    }
}

/// Entries a drained [`Deferred`] list keeps room for. A turn defers one
/// task, the resolves of the requests its event finishes and the blocking
/// legs it starts, so a few entries are the common case; a list a shutdown
/// or a wide fan-out grew past this gives the excess back.
const DEFERRED_KEPT: usize = 16;

/// Everything processing defers to after the core lock is released. The
/// thread stepping the core keeps one beside its [`Wakes`], and
/// [`EventCore::flush`] drains it, so a turn does not allocate its lists
/// again.
#[derive(Default)]
struct Deferred<'env> {
    spawns: Vec<BlockingTask>,
    dones: Vec<(DoneFn<'env>, RequestResult)>,
    tasks: Vec<TaskFn<'env>>,
    release_slots: usize,
}

impl Deferred<'_> {
    /// Whether nothing waits for the unlock.
    fn is_empty(&self) -> bool {
        let Deferred {
            spawns,
            dones,
            tasks,
            release_slots,
        } = self;
        spawns.is_empty() && dones.is_empty() && tasks.is_empty() && *release_slots == 0
    }
}

/// Gives back the room of a drained `list` beyond [`DEFERRED_KEPT`].
fn trim<T>(list: &mut Vec<T>) {
    if list.capacity() > DEFERRED_KEPT {
        list.shrink_to(DEFERRED_KEPT);
    }
}

/// The wake-ups a driver's resolves owe threads parked on their results,
/// held until the end of the clock instant they were deferred at: sent
/// before the driver idles (a turn that parks owes them), before a step
/// once its clock reads later than the oldest one's instant, and when it
/// stops (drop): a waiter is woken no later than the end of its request's
/// instant, once for many requests resolving at one instant. The buffer is
/// kept from batch to batch.
#[derive(Default)]
pub(crate) struct Wakes {
    waiters: Vec<Waker>,
    /// The instant the oldest held wake-up was deferred at.
    since: Duration,
    /// Set by a turn that parks.
    owed: bool,
}

impl Wakes {
    fn defer(&mut self, waiter: Waker, now: Duration) {
        if self.waiters.is_empty() {
            self.since = now;
        }
        self.waiters.push(waiter);
    }

    /// Whether a wake-up is held from an instant before `now`, which is
    /// read only when one is held.
    fn overdue(&self, now: impl FnOnce() -> Duration) -> bool {
        !self.waiters.is_empty() && now() > self.since
    }

    fn send(&mut self) {
        self.owed = false;
        self.waiters.drain(..).for_each(Waker::wake);
    }

    /// Sends the held wake-ups if a turn owed them.
    fn send_owed(&mut self) {
        if self.owed {
            self.send();
        }
    }
}

impl Drop for Wakes {
    fn drop(&mut self) {
        self.send();
    }
}

/// The event-driven execution core (see the module docs).
pub(crate) struct EventCore<'env> {
    clock: Shared<'env, dyn Clock + 'env>,
    state: Mutex<CoreState<'env>>,
    /// Where this core's drivers idle — theirs alone, so a wake reaches no
    /// other core's drivers on a shared clock.
    parker: Arc<Parker>,
    /// The agenda's armed bit, mirrored for the predicate an idle driver's
    /// wait re-checks under the clock's lock, where the core's lock may
    /// not be taken. Written only under the core lock, so it never
    /// disagrees with the agenda once that lock is released.
    signal: AtomicBool,
    /// [`EngineStats::waiter_wakes`].
    waiter_wakes: AtomicU64,
}

impl std::fmt::Debug for EventCore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("EventCore")
            .field("in_flight", &stats.in_flight)
            .field("frames_live", &stats.frames_live)
            .finish_non_exhaustive()
    }
}

/// The strategy node that is child `ordinal` of frame `frame` for
/// `slot = Some((frame, ordinal))`, or the root for `None`: climbs the
/// frames' parent links to the root and descends the tree on the way back
/// (recursion as deep as the node, like every other walk of a strategy).
fn node_at<'s>(strategy: &'s Strategy, frames: &[Frame], slot: Option<(usize, usize)>) -> &'s Node {
    let Some((frame, ordinal)) = slot else {
        return strategy.node();
    };
    match node_at(strategy, frames, frames[frame].parent) {
        Node::Seq(children) | Node::Par(children) => &children[ordinal],
        Node::Leaf(_) => unreachable!("frames are never leaves"),
    }
}

impl<'env> CoreState<'env> {
    /// The state of `req` while it is still walking its strategy.
    fn running(&mut self, req: ReqId) -> Option<&mut RequestState<'env>> {
        match self.requests.get_mut(req) {
            Some(Entry::Running(request)) => Some(request),
            _ => None,
        }
    }
}

impl<'env> EventCore<'env> {
    pub(crate) fn new(clock: Shared<'env, dyn Clock + 'env>, parker: Arc<Parker>) -> Self {
        EventCore {
            clock,
            parker,
            state: Mutex::new(CoreState {
                agenda: Agenda::new(),
                requests: Slots::new(),
                spare_frames: Default::default(),
                frames_live: 0,
                frames_peak: 0,
                held: Vec::new(),
                holding: false,
                holds: 0,
            }),
            signal: AtomicBool::new(false),
            waiter_wakes: AtomicU64::new(0),
        }
    }

    /// Takes the core lock, counting the hold.
    fn lock(&self) -> MutexGuard<'_, CoreState<'env>> {
        let mut state = self.state.lock();
        state.holds += 1;
        state
    }

    /// The clock this core schedules on.
    pub(crate) fn clock(&self) -> &dyn Clock {
        &*self.clock
    }

    /// Where this core's drivers idle.
    pub(crate) fn parker(&self) -> &Arc<Parker> {
        &self.parker
    }

    /// Current occupancy counters; `blocking_cores_built` is the
    /// gateway's count, and reads 0 here.
    pub(crate) fn stats(&self) -> EngineStats {
        let state = self.lock();
        EngineStats {
            in_flight: state.requests.len(),
            frames_live: state.frames_live,
            frames_peak: state.frames_peak,
            timers_peak: state.agenda.timers.peak,
            timer_runs_peak: state.agenda.timers.runs_peak,
            frame_bytes: std::mem::size_of::<Frame>(),
            wakeups: self.parker.wakes(),
            waiter_wakes: self.waiter_wakes.load(Ordering::Relaxed),
            lock_holds: state.holds,
            blocking_cores_built: 0,
        }
    }

    /// Admits a request and starts its root node synchronously (so
    /// `started_at` is the submission instant, exactly like the walker).
    /// Blocking legs the root fans out immediately are handed to `spawn`;
    /// a request whose whole tree resolves synchronously (e.g. a
    /// pre-tripped budget) is resolved — callback run or result parked —
    /// before this returns.
    ///
    /// A submission wakes nobody: its caller must be this core's running,
    /// registered driver (`engine::drive` and `execute_scoped` before they
    /// drive, a gateway loop's continuation on its turn), whose next turn
    /// reads the agenda. So it arms no signal, and reserves no clock slot:
    /// time cannot pass the work while its driver runs.
    pub(crate) fn submit(&self, spec: RequestSpec<'env>, spawn: &dyn Fn(BlockingTask)) -> ReqId {
        let mut deferred = Deferred::default();
        let req;
        {
            let mut state = self.lock();
            if state.agenda.shutdown {
                req = state
                    .requests
                    .insert(Entry::Parked(RequestResult::Shutdown));
                if let Done::Call(done) = spec.done {
                    // Nobody will collect it: the returned id resolves to
                    // nothing and the callback gets the result instead.
                    state.requests.remove(req);
                    deferred.dones.push((done, RequestResult::Shutdown));
                }
            } else {
                if let Some(telemetry) = spec.plan.telemetry() {
                    telemetry.record_engine_request_start();
                }
                let started_at = self.clock().now();
                let spare = state.spare_frames.iter_mut().find(|a| a.capacity() > 0);
                let frames = spare.map(std::mem::take).unwrap_or_default();
                req = state.requests.insert(Entry::Running(RequestState {
                    plan: spec.plan,
                    request: spec.request,
                    budget: spec.budget,
                    policy: spec.policy,
                    started_at,
                    cost: -0.0,
                    invocations: spec.record_invocations.then(Vec::new),
                    pruned: None,
                    frames,
                    done: spec.done,
                }));
                self.start_node(&mut state, &mut deferred, req, None);
            }
        }
        // A request resolved here, off any driver's turn, wakes at once.
        self.flush(&mut deferred, spawn, None);
        req
    }

    /// Drives the core until request `req` — submitted with
    /// [`Done::Park`] — resolves, and returns its result (`None` for an id
    /// that is not, or no longer, in the core). The calling thread is the
    /// driver: it should hold a worker slot on the clock.
    ///
    /// The lock hold that finds the request resolved also takes its result
    /// and readies the core for its driver's next request: it disarms the
    /// wake signal (what `Drop` would do) and reports, as the second value,
    /// whether the core is quiescent — nothing ready, no timer, no request
    /// and no live frame. Only a quiescent core no other thread holds may
    /// be kept for reuse; any other is dropped.
    pub(crate) fn drive_request(
        &self,
        req: ReqId,
        spawn: &dyn Fn(BlockingTask),
    ) -> (Option<RequestResult>, bool) {
        let resolved =
            |state: &CoreState<'env>| !matches!(state.requests.get(req), Some(Entry::Running(_)));
        let (mut wakes, mut deferred) = (Wakes::default(), Deferred::default());
        let mut state = loop {
            if let Some(state) = self.step(spawn, &resolved, &mut wakes, &mut deferred) {
                break state;
            }
        };
        let result = match state.requests.remove(req) {
            Some(Entry::Parked(result)) => Some(result),
            _ => None,
        };
        let effect = self.hold(state.agenda.retire());
        let agenda = &state.agenda;
        let idle = agenda.ready.is_empty() && agenda.timers.is_empty();
        let quiescent = idle && state.requests.len() == 0 && state.frames_live == 0;
        drop(state);
        self.fire(effect);
        (result, quiescent)
    }

    /// Drives the core until [`EventCore::shutdown`] is called. This is
    /// the gateway's event-loop thread body; the wake-ups it still holds
    /// go out as it returns.
    pub(crate) fn run_loop(&self, spawn: &dyn Fn(BlockingTask)) {
        let (mut wakes, mut deferred) = (Wakes::default(), Deferred::default());
        while self
            .step(spawn, &|_| false, &mut wakes, &mut deferred)
            .is_none()
        {}
    }

    /// Queues an embedder thunk on the ready queue.
    pub(crate) fn post_task(&self, task: TaskFn<'env>) {
        self.post(Event::Task(task));
    }

    /// Schedules an embedder thunk to run once the clock reaches
    /// `deadline`, waking the drivers only when it becomes the earliest
    /// timer ([`Agenda::schedule`]).
    pub(crate) fn schedule_task(&self, deadline: Duration, task: TaskFn<'env>) {
        self.apply(|agenda| agenda.schedule(deadline, Event::Task(task), true));
    }

    /// Shuts the core down: every in-flight request's `done` callback
    /// fires with [`RequestResult::Shutdown`], queued events are dropped
    /// (releasing any worker slots riding on them), and the drivers exit.
    /// Blocking legs still on provider threads finish on their own and
    /// release their slots when they find the core shut down.
    pub(crate) fn shutdown(&self) {
        let mut deferred = Deferred::default();
        let (drained, effect) = {
            let mut state = self.lock();
            let state = &mut *state;
            let (drained, effect) = state.agenda.shutdown();
            state.held.clear();
            state.requests.retain_in_order(|entry| {
                // An already parked result stays for its driver to collect.
                let Entry::Running(request) = entry else {
                    return true;
                };
                state.frames_live -= request.frames.len();
                if let Some(telemetry) = request.plan.telemetry() {
                    telemetry.record_engine_frames_done(request.frames.len());
                    telemetry.record_engine_request_end();
                }
                match std::mem::replace(&mut request.done, Done::Park) {
                    Done::Call(done) => {
                        deferred.dones.push((done, RequestResult::Shutdown));
                        false
                    }
                    Done::Park => {
                        *entry = Entry::Parked(RequestResult::Shutdown);
                        true
                    }
                }
            });
            (drained, self.hold(effect))
        };
        let orphans = drained.iter().filter(|event| event.orphan_slot());
        deferred.release_slots += orphans.count();
        self.flush(
            &mut deferred,
            &|_| unreachable!("shutdown starts no leg"),
            None,
        );
        self.fire(effect);
    }

    /// Queues `event` and wakes the drivers. If the core has shut down the
    /// event is dropped and a blocking leg's orphan slot released here, so
    /// an abandoned in-flight leg cannot freeze the clock.
    fn post(&self, event: Event<'env>) {
        if self
            .apply(|agenda| agenda.post(event))
            .is_some_and(|e| e.orphan_slot())
        {
            self.clock().release_worker();
        }
    }

    /// One agenda step under the core lock, its effect applied.
    fn apply<R>(&self, step: impl FnOnce(&mut Agenda<Event<'env>>) -> (R, Effect)) -> R {
        let (out, effect) = {
            let mut state = self.lock();
            let (out, effect) = step(&mut state.agenda);
            (out, self.hold(effect))
        };
        self.fire(effect);
        out
    }

    /// The half of `effect` applied under the core lock: the signal's
    /// mirror and an armed signal's clock slot, reserved before anyone can
    /// see the work that armed it (core lock, then clock lock, as
    /// `start_node` takes them for a blocking leaf).
    fn hold(&self, effect: Effect) -> Effect {
        match effect {
            Effect::Arm => {
                self.clock().reserve_worker();
                self.signal.store(true, Ordering::SeqCst);
            }
            Effect::Release => self.signal.store(false, Ordering::SeqCst),
            Effect::Quiet | Effect::Notify => {}
        }
        effect
    }

    /// The rest of `effect`, after the unlock. A late release only
    /// over-counts the slots: it can hold virtual time back, never push it.
    fn fire(&self, effect: Effect) {
        match effect {
            Effect::Arm | Effect::Notify => self.clock().notify_sleepers(&self.parker),
            Effect::Release => self.clock().release_worker(),
            Effect::Quiet => {}
        }
    }

    /// One driver iteration, in one hold of the core lock: process ready
    /// events, else due timers, else wait. The hold is kept from turn to
    /// turn while the events processed defer nothing and no held wake-up is
    /// overdue; the iteration ends by unlocking to run what they deferred,
    /// or to park. Returns the lock, still held, once `stop` holds or the
    /// core has shut down, and `None` when the caller should step again.
    /// A chain that a completion releases while a timer is still due at
    /// the instant is held, and every held chain advances after the event
    /// that leaves none due (on a [`VirtualClock`](crate::VirtualClock),
    /// the last of the instant's run): every completion of an instant is
    /// delivered before a leg it releases starts, so a success that ties
    /// a failure halts the walk first, as Algorithm 1's `e ≤ s` and the
    /// simulator have it.
    /// The wake-ups the iteration's resolves owe join `wakes`, sent before
    /// the wait and at the first iteration its instant is over; what it
    /// defers past the lock goes through the `deferred` lists its thread
    /// keeps.
    fn step(
        &self,
        spawn: &dyn Fn(BlockingTask),
        stop: &dyn Fn(&CoreState<'env>) -> bool,
        wakes: &mut Wakes,
        deferred: &mut Deferred<'env>,
    ) -> Option<MutexGuard<'_, CoreState<'env>>> {
        let now = || self.clock().now();
        if wakes.overdue(now) {
            wakes.send();
        }
        let mut state = self.lock();
        let (deadline, effect) = loop {
            if stop(&state) {
                return Some(state);
            }
            match state.agenda.turn(now(), wakes) {
                Turn::Run(event, due) => {
                    state.holding = due;
                    match event {
                        Event::Task(task) => deferred.tasks.push(task),
                        Event::Leaf(leaf) => self.process_leaf(&mut state, deferred, leaf),
                    }
                    state.holding = false;
                    if !due {
                        self.advance_held(&mut state, deferred);
                    }
                    if deferred.is_empty() && !wakes.overdue(now) {
                        continue;
                    }
                    drop(state);
                    self.flush(deferred, spawn, Some(wakes));
                    return None;
                }
                Turn::Park(deadline, effect) => break (deadline, self.hold(effect)),
                Turn::Stop => return Some(state),
            }
        };
        drop(state);
        self.fire(effect);
        wakes.send_owed();
        self.clock().sleep_until_or(&self.parker, deadline, &|| {
            self.signal.load(Ordering::SeqCst)
        });
        None
    }

    /// Runs what processing deferred, draining `deferred` for its next
    /// use. A wake-up a `done` callback returns joins `wakes`, or is sent
    /// at once without one.
    fn flush(
        &self,
        deferred: &mut Deferred<'env>,
        spawn: &dyn Fn(BlockingTask),
        mut wakes: Option<&mut Wakes>,
    ) {
        // Orphan slots are released only after processing (and after any
        // new reservations processing made), so virtual time never runs
        // ahead of a completion the driver has not finished accounting.
        for _ in 0..std::mem::take(&mut deferred.release_slots) {
            self.clock().release_worker();
        }
        for (done, result) in deferred.dones.drain(..) {
            let Some(waiter) = done.done(result) else {
                continue;
            };
            self.waiter_wakes.fetch_add(1, Ordering::Relaxed);
            match wakes.as_deref_mut() {
                Some(wakes) => wakes.defer(waiter, self.clock().now()),
                None => waiter.wake(),
            }
        }
        for task in deferred.tasks.drain(..) {
            task.run();
        }
        for task in deferred.spawns.drain(..) {
            spawn(task);
        }
        trim(&mut deferred.dones);
        trim(&mut deferred.tasks);
        trim(&mut deferred.spawns);
    }

    /// Completes one leaf: records the invocation exactly as the old
    /// walker did (outcome, collector, telemetry, policy — in that order;
    /// collector and telemetry through the provider's [`LegSink`]) and
    /// delivers the resulting status to the parent frame. A completion
    /// for a request that no longer exists (core shut down concurrently)
    /// only releases its slot.
    fn process_leaf(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        event: LeafEvent,
    ) {
        if event.orphan_slot {
            deferred.release_slots += 1;
        }
        let status = match event.result {
            LeafOutcome::Panicked(panic) => Status::Panicked(panic),
            LeafOutcome::Completed(result, cost) => {
                let clock = self.clock();
                let Some(request) = state.running(event.req) else {
                    return;
                };
                let plan = &*request.plan;
                let provider = &plan.providers()[event.provider_index];
                let now = clock.now();
                // Timed legs report the latency the provider declared; on
                // an unclamped virtual clock `now - t0` equals it exactly,
                // but a saturated deadline would silently shrink it by t0.
                let latency = event
                    .declared
                    .unwrap_or_else(|| now.saturating_sub(event.t0));
                let success = result.is_ok();
                if let Some(invocations) = &mut request.invocations {
                    invocations.push(InvocationOutcome {
                        provider_id: provider.id().to_string(),
                        capability: provider.capability().to_string(),
                        payload: result.as_ref().ok().cloned(),
                        latency,
                        cost,
                        success,
                    });
                }
                plan.sinks()[event.provider_index].record(
                    provider.id(),
                    plan.collector(),
                    plan.telemetry(),
                    ExecutionRecord {
                        success,
                        latency,
                        cost,
                    },
                );
                request.cost += cost;
                match result {
                    Ok(payload) => {
                        let at = now.saturating_sub(request.started_at);
                        request.policy.on_success(payload, at);
                        Status::Succeeded
                    }
                    Err(_) => Status::Failed,
                }
            }
        };
        self.deliver(state, deferred, event.req, event.parent, status);
    }

    /// Starts the node in `parent`'s child slot (`None` = the strategy
    /// root), delivering to `parent` when it resolves.
    fn start_node(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        req: ReqId,
        parent: Option<(usize, usize)>,
    ) {
        let clock = self.clock();
        let Some(Entry::Running(request)) = state.requests.get_mut(req) else {
            return;
        };
        let (len, seq) = match *node_at(request.plan.strategy(), &request.frames, parent) {
            Node::Leaf(id) => {
                let provider_index = id.index();
                // The short-circuit: once the policy halts or the budget
                // trips, new invocations never start (never charged).
                if request.stopped(clock) {
                    self.deliver(state, deferred, req, parent, Status::Cancelled);
                    return;
                }
                // Only a blocking leg's task owns its provider.
                let provider = &request.plan.providers()[provider_index];
                let Some((latency, result)) = timed_leg(&**provider, &request.request, clock)
                else {
                    // Reserve the slot *now*, under the core lock, so the
                    // clock cannot advance before the task's thread binds
                    // it — the same reserve-before-spawn discipline as the
                    // old walker.
                    clock.reserve_worker();
                    deferred.spawns.push(BlockingTask {
                        req,
                        parent,
                        provider_index,
                        provider: Arc::clone(provider),
                        invocation: Invocation::clone(&request.request),
                    });
                    return;
                };
                // Its submitter or driver is awake: the timer wakes nobody.
                let t0 = clock.now();
                let leaf = Event::Leaf(LeafEvent {
                    req,
                    parent,
                    provider_index,
                    t0,
                    declared: Some(latency),
                    result,
                    orphan_slot: false,
                });
                state
                    .agenda
                    .schedule(t0.saturating_add(latency), leaf, false);
                return;
            }
            Node::Seq(ref children) => (children.len(), true),
            Node::Par(ref children) => (children.len(), false),
        };
        let kind = if seq {
            FrameKind::Seq { next: 0, len }
        } else {
            FrameKind::Par {
                pending: len,
                succeeded: false,
                cancelled: false,
                panicked: None,
            }
        };
        state.frames_live += 1;
        state.frames_peak = state.frames_peak.max(state.frames_live);
        if let Some(telemetry) = request.plan.telemetry() {
            telemetry.record_engine_frame();
        }
        request.frames.push(Frame { parent, kind });
        let frame = request.frames.len() - 1;
        if seq {
            self.advance_seq(state, deferred, req, frame);
        } else if len == 0 {
            self.resolve_frame(state, deferred, req, frame, Status::Failed);
        } else {
            // Fan every child out before any completion can process:
            // `pending` starts at `len`, so even a zero-latency child
            // resolving synchronously cannot fold the Par early.
            for ordinal in 0..len {
                self.start_node(state, deferred, req, Some((frame, ordinal)));
            }
        }
    }

    /// Starts the next leg of a Seq frame — checking the stop condition at
    /// exactly the instants the old walker did: before each child, but not
    /// after the last one (an exhausted chain reports `Failed` as-is).
    fn advance_seq(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        req: ReqId,
        frame: usize,
    ) {
        let Some(request) = state.running(req) else {
            return;
        };
        let FrameKind::Seq { next, len } = request.frames[frame].kind else {
            unreachable!("advance_seq on a non-Seq frame");
        };
        if next == len {
            self.resolve_frame(state, deferred, req, frame, Status::Failed);
        } else if request.stopped(self.clock()) {
            self.resolve_frame(state, deferred, req, frame, Status::Cancelled);
        } else {
            request.frames[frame].kind = FrameKind::Seq {
                next: next + 1,
                len,
            };
            self.start_node(state, deferred, req, Some((frame, next)));
        }
    }

    /// Advances the held chains in the order their completions released
    /// them; the list keeps its capacity.
    fn advance_held(&self, state: &mut CoreState<'env>, deferred: &mut Deferred<'env>) {
        let mut held = std::mem::take(&mut state.held);
        for (req, frame) in held.drain(..) {
            self.advance_seq(state, deferred, req, frame);
        }
        state.held = held;
    }

    /// Marks `frame` resolved and delivers `status` to its parent.
    fn resolve_frame(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        req: ReqId,
        frame: usize,
        status: Status,
    ) {
        let parent = {
            let Some(request) = state.running(req) else {
                return;
            };
            request.frames[frame].kind = FrameKind::Resolved;
            request.frames[frame].parent
        };
        self.deliver(state, deferred, req, parent, status);
    }

    /// Delivers a resolved child's status to its parent slot (`None` =
    /// the strategy root; the request itself resolves).
    fn deliver(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        req: ReqId,
        slot: Option<(usize, usize)>,
        status: Status,
    ) {
        let Some((frame, ordinal)) = slot else {
            self.resolve_request(state, deferred, req, status);
            return;
        };
        let Some(request) = state.running(req) else {
            return;
        };
        let absorbs = request.policy.seq_absorbs_success();
        let resolved = match &mut request.frames[frame].kind {
            FrameKind::Seq { .. } => match status {
                // A panic aborts the chain immediately, as unwinding did in
                // the thread model.
                Status::Panicked(panic) => Status::Panicked(panic),
                // Under first-success semantics a succeeding fail-over leg
                // absorbs the chain; under quorum every stage still runs so
                // it can contribute votes.
                Status::Succeeded if absorbs => Status::Succeeded,
                Status::Cancelled => Status::Cancelled,
                Status::Succeeded | Status::Failed if state.holding => {
                    state.held.push((req, frame));
                    return;
                }
                Status::Succeeded | Status::Failed => {
                    return self.advance_seq(state, deferred, req, frame);
                }
            },
            FrameKind::Par {
                pending,
                succeeded,
                cancelled,
                panicked,
            } => {
                match status {
                    Status::Succeeded => *succeeded = true,
                    Status::Cancelled => *cancelled = true,
                    Status::Failed => {}
                    Status::Panicked(panic) => {
                        // The thread model re-raised the first panic in
                        // child order (inline leg first); keep the lowest
                        // ordinal.
                        if panicked.as_ref().is_none_or(|(o, _)| ordinal < *o) {
                            *panicked = Some((ordinal, panic));
                        }
                    }
                }
                *pending -= 1;
                if *pending > 0 {
                    return;
                }
                if let Some((_, panic)) = panicked.take() {
                    Status::Panicked(panic)
                } else if *succeeded {
                    Status::Succeeded
                } else if *cancelled {
                    Status::Cancelled
                } else {
                    Status::Failed
                }
            }
            FrameKind::Resolved => unreachable!("delivery to a resolved frame"),
        };
        self.resolve_frame(state, deferred, req, frame, resolved);
    }

    /// The root resolved: assembles the [`EngineOutcome`] (at the
    /// resolution instant — every leg has completed by construction) and
    /// parks it in the request's slot or defers its `done` callback.
    fn resolve_request(
        &self,
        state: &mut CoreState<'env>,
        deferred: &mut Deferred<'env>,
        req: ReqId,
        status: Status,
    ) {
        let Some(entry) = state.requests.get_mut(req) else {
            return;
        };
        let parked = Entry::Parked(RequestResult::Shutdown);
        let Entry::Running(request) = std::mem::replace(entry, parked) else {
            unreachable!("only a running request's root resolves");
        };
        let mut frames = request.frames;
        state.frames_live -= frames.len();
        if let Some(telemetry) = request.plan.telemetry() {
            telemetry.record_engine_frames_done(frames.len());
            telemetry.record_engine_request_end();
        }
        frames.clear();
        if let Some(place) = state.spare_frames.iter_mut().find(|a| a.capacity() == 0) {
            *place = frames;
        }
        let result = match status {
            Status::Panicked(panic) => RequestResult::Panicked(panic),
            Status::Succeeded | Status::Failed | Status::Cancelled => {
                let fallback = self.clock().now().saturating_sub(request.started_at);
                let (completion, latency) = request.policy.finish(fallback);
                let prune_detail = request.pruned;
                RequestResult::Finished(EngineOutcome {
                    completion,
                    latency,
                    cost: request.cost,
                    invocations: request.invocations.unwrap_or_default(),
                    pruned: prune_detail.map(|d| d.reason),
                    prune_detail,
                })
            }
        };
        match request.done {
            Done::Park => *entry = Entry::Parked(result),
            Done::Call(done) => {
                state.requests.remove(req);
                deferred.dones.push((done, result));
            }
        }
    }
}

impl Drop for EventCore<'_> {
    fn drop(&mut self) {
        // An armed wake signal holds a reserved worker slot on the clock.
        // If no driver runs again — the core shut down, or a blocking
        // drive's core was not kept — the slot must not outlive the core,
        // or it would freeze virtual time for every other user of a shared
        // clock.
        let effect = self.state.get_mut().agenda.retire();
        self.fire(effect);
    }
}

#[cfg(test)]
mod tests {
    mod explore;
    mod runs;

    use super::*;
    use crate::clock::VirtualClock;
    use crate::device::SimulatedProvider;
    use qce_strategy::CompletionPolicy;

    #[test]
    fn a_reused_slot_does_not_answer_to_its_old_id() {
        let mut slots = Slots::new();
        let first = slots.insert("first");
        assert_eq!(slots.get(first), Some(&"first"));
        assert_eq!(slots.remove(first), Some("first"));
        assert_eq!(slots.get(first), None, "freed");
        let second = slots.insert("second");
        assert_eq!(second.index, first.index, "the freed slot is reused");
        assert_ne!(second, first, "under a new generation");
        assert_eq!(slots.get(first), None);
        assert_eq!(slots.get_mut(first), None);
        assert_eq!(slots.remove(first), None, "a stale id frees nothing");
        assert_eq!(slots.get(second), Some(&"second"));
    }

    #[test]
    fn len_tracks_inserts_and_removes() {
        let mut slots = Slots::new();
        assert_eq!(slots.len(), 0);
        let ids: Vec<ReqId> = (0..5).map(|i| slots.insert(i)).collect();
        assert_eq!(slots.len(), 5);
        assert_eq!(slots.remove(ids[1]), Some(1));
        assert_eq!(slots.remove(ids[3]), Some(3));
        assert_eq!(slots.remove(ids[3]), None);
        assert_eq!(slots.len(), 3);
        // Freed slots are reused, most recently freed first, before the
        // vector grows.
        assert_eq!(slots.insert(5).index, ids[3].index);
        assert_eq!(slots.insert(6).index, ids[1].index);
        assert_eq!(slots.insert(7).index, 5);
        assert_eq!(slots.len(), 6);
        assert_eq!(slots.slots.len(), 6);
    }

    #[test]
    fn retain_visits_in_insertion_order_across_reuse() {
        let mut slots = Slots::new();
        let ids: Vec<ReqId> = (0..4).map(|i| slots.insert(i)).collect();
        slots.remove(ids[0]);
        slots.remove(ids[2]);
        slots.insert(4); // slot 2
        slots.insert(5); // slot 0
        let mut seen = Vec::new();
        slots.retain_in_order(|value| {
            seen.push(*value);
            *value % 2 == 1
        });
        assert_eq!(seen, [1, 3, 4, 5], "insertion order, not slot order");
        assert_eq!(slots.len(), 3);
        assert_eq!(slots.get(ids[1]), Some(&1));
    }

    /// The plan of `strategy` over `providers`, recording nowhere.
    fn plan<'a>(strategy: &'a Strategy, providers: &'a [Arc<dyn Provider>]) -> BorrowedPlan<'a> {
        BorrowedPlan {
            strategy,
            providers,
            sinks: LegSink::aligned(providers),
            collector: None,
            telemetry: None,
        }
    }

    /// A request on `plan` whose resolution is appended to `log` under
    /// `name`.
    fn logged_request<'env>(
        name: &'static str,
        plan: &'env BorrowedPlan<'env>,
        request: &'env Invocation,
        log: &'env Mutex<Vec<(&'static str, String)>>,
    ) -> RequestSpec<'env> {
        RequestSpec {
            plan: Shared::Borrowed(plan),
            request: Cow::Borrowed(request),
            budget: Budget::unlimited(),
            policy: PolicyState::new(CompletionPolicy::FirstSuccess),
            record_invocations: false,
            done: Done::Call(Box::new(move |result: RequestResult| {
                log.lock().push((name, format!("{result:?}")));
                None
            })),
        }
    }

    /// `shutdown` resolves what it drains in submission order, as the
    /// ordered map did — also when a reused slot puts a later request at a
    /// lower index than an earlier one.
    #[test]
    fn shutdown_resolves_in_submission_order() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let provider = |latency_ms| -> Vec<Arc<dyn Provider>> {
            vec![SimulatedProvider::builder("p", "cap")
                .latency(Duration::from_millis(latency_ms))
                .clock(Arc::clone(&clock))
                .build()]
        };
        let (instant, slow) = (provider(0), provider(50));
        let strategy = Strategy::parse("a").unwrap();
        let (instant, slow) = (plan(&strategy, &instant), plan(&strategy, &slow));
        let request = Invocation::new(1, "", vec![]);
        let log = Mutex::new(Vec::new());
        let no_spawn = |_: BlockingTask| unreachable!("every leaf is timed");

        let core = EventCore::new(Shared::Borrowed(&*clock), Arc::default());
        let spec = |name, plan| logged_request(name, plan, &request, &log);
        let first = core.submit(spec("first", &instant), &no_spawn);
        let second = core.submit(spec("second", &slow), &no_spawn);
        assert_eq!((first.index, second.index), (0, 1));
        // One driver step completes the zero-latency leaf; its slot frees.
        assert!(core
            .step(
                &no_spawn,
                &|_| false,
                &mut Wakes::default(),
                &mut Deferred::default()
            )
            .is_none());
        assert_eq!(log.lock().len(), 1);
        assert_eq!(core.stats().in_flight, 1);
        let third = core.submit(spec("third", &slow), &no_spawn);
        assert_eq!(third.index, first.index, "reuses the freed slot");
        assert_eq!(core.stats().in_flight, 2);

        core.shutdown();
        assert_eq!(core.stats().in_flight, 0);
        assert_eq!(core.stats().frames_live, 0);
        let log = log.lock();
        let names: Vec<&str> = log.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["first", "second", "third"]);
        assert!(log[0].1.starts_with("Finished"));
        assert_eq!(
            (log[1].1.as_str(), log[2].1.as_str()),
            ("Shutdown", "Shutdown")
        );
    }

    /// A blocking leg's completion can arrive after its request is gone
    /// and the slot serves another: the stale id must not reach it.
    #[test]
    fn a_late_leaf_event_cannot_reach_the_slots_next_request() {
        let clock: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let provider: Vec<Arc<dyn Provider>> = vec![SimulatedProvider::builder("p", "cap")
            .latency(Duration::from_millis(50))
            .clock(Arc::clone(&clock))
            .build()];
        let strategy = Strategy::parse("a").unwrap();
        let plan = plan(&strategy, &provider);
        let request = Invocation::new(1, "", vec![]);
        let log = Mutex::new(Vec::new());
        let no_spawn = |_: BlockingTask| unreachable!("every leaf is timed");

        let core = EventCore::new(Shared::Borrowed(&*clock), Arc::default());
        let spec = |name| logged_request(name, &plan, &request, &log);
        let gone = core.submit(spec("gone"), &no_spawn);
        core.state.lock().requests.remove(gone);
        let current = core.submit(spec("current"), &no_spawn);
        assert_eq!(current.index, gone.index);

        core.post(Event::Leaf(LeafEvent {
            req: gone,
            parent: None,
            provider_index: 0,
            t0: Duration::ZERO,
            declared: None,
            result: LeafOutcome::Completed(Ok(vec![1]), 0.0),
            orphan_slot: false,
        }));
        assert!(core
            .step(
                &no_spawn,
                &|_| false,
                &mut Wakes::default(),
                &mut Deferred::default()
            )
            .is_none());
        assert!(
            log.lock().is_empty(),
            "the stale completion resolved nothing"
        );
        assert_eq!(core.stats().in_flight, 1);
    }

    /// Counts the wake-ups sent to it.
    #[derive(Default)]
    struct Woken(AtomicU64);

    impl std::task::Wake for Woken {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Every resolve owes a wake-up here. The driver holds those of one
    /// instant until the instant is over: until it idles, or until a step
    /// finds the clock moved on, or until it stops.
    #[test]
    fn a_driver_holds_an_instants_wake_ups_until_the_instant_ends() {
        let ms = Duration::from_millis;
        let clock = Arc::new(VirtualClock::new());
        let provider = |latency| -> Vec<Arc<dyn Provider>> {
            vec![SimulatedProvider::builder("p", "cap")
                .latency(latency)
                .clock(Arc::clone(&clock) as Arc<dyn Clock>)
                .build()]
        };
        let (soon, later) = (provider(ms(1)), provider(ms(5)));
        let strategy = Strategy::parse("a").unwrap();
        let (soon, later) = (plan(&strategy, &soon), plan(&strategy, &later));
        let request = Invocation::new(1, "", vec![]);
        let woken = Arc::new(Woken::default());
        let spec = |plan| RequestSpec {
            plan: Shared::Borrowed(plan),
            request: Cow::Borrowed(&request),
            budget: Budget::unlimited(),
            policy: PolicyState::new(CompletionPolicy::FirstSuccess),
            record_invocations: false,
            done: Done::Call(Box::new({
                let woken = Arc::clone(&woken);
                move |_: RequestResult| Some(Waker::from(woken))
            })),
        };
        let no_spawn = |_: BlockingTask| unreachable!("every leaf is timed");
        let sent = || woken.0.load(Ordering::SeqCst);

        let core = EventCore::new(Shared::Borrowed(&*clock), Arc::default());
        for plan in [&soon, &soon, &soon, &later] {
            core.submit(spec(plan), &no_spawn);
        }
        let mut wakes = Wakes::default();
        let step = |wakes: &mut Wakes| {
            let mut deferred = Deferred::default();
            core.step(&no_spawn, &|_| false, wakes, &mut deferred)
                .is_none()
        };
        assert!(step(&mut wakes), "idles to the first timer");
        assert_eq!(clock.now(), ms(1));
        for _ in 0..3 {
            assert!(step(&mut wakes));
        }
        assert_eq!((sent(), core.stats().waiter_wakes), (0, 3), "held");
        assert!(step(&mut wakes), "idles: sends, then sleeps to 5 ms");
        assert_eq!((sent(), clock.now()), (3, ms(5)));
        assert!(step(&mut wakes));
        assert_eq!((sent(), core.stats().waiter_wakes), (3, 4), "held");
        clock.advance(ms(1));
        let mut deferred = Deferred::default();
        let stopped = core.step(&no_spawn, &|_| true, &mut wakes, &mut deferred);
        assert!(stopped.is_some());
        drop(stopped);
        assert_eq!(sent(), 4, "sent first thing once the clock moved on");

        // And on the way out, whatever is still held.
        core.submit(spec(&soon), &no_spawn);
        let mut wakes = Wakes::default();
        assert!(step(&mut wakes));
        assert!(step(&mut wakes));
        assert_eq!(sent(), 4);
        drop(wakes);
        assert_eq!(sent(), 5);
    }

    /// A driver idles to the earliest deadline, so a scheduled task wakes
    /// it only when it becomes the earliest: a later timer, or a tie, waits
    /// for the driver's next read of the timers. Every task still runs
    /// at its own deadline.
    #[test]
    fn a_timer_wakes_the_driver_only_when_it_becomes_the_earliest() {
        use crate::clock::WorkerGuard;

        let ms = Duration::from_millis;
        let clock = VirtualClock::new();
        let ran = Mutex::new(Vec::new());
        let parker = Arc::new(Parker::default());
        let core = EventCore::new(Shared::Borrowed(&clock), Arc::clone(&parker));
        let schedule = |at| {
            let (ran, clock) = (&ran, &clock);
            core.schedule_task(at, Box::new(move || ran.lock().push((at, clock.now()))));
        };
        let no_spawn = |_: BlockingTask| unreachable!("no leaf runs");

        std::thread::scope(|scope| {
            // A second worker pins time while the driver parks at 10 ms.
            let pin = WorkerGuard::enter(&clock);
            schedule(ms(10));
            scope.spawn(|| {
                let _driver = WorkerGuard::enter(&clock);
                let (mut wakes, mut deferred) = (Wakes::default(), Deferred::default());
                let done = |state: &CoreState| state.agenda.timers.is_empty();
                while core
                    .step(&no_spawn, &done, &mut wakes, &mut deferred)
                    .is_none()
                {}
            });
            while parker.parked() == 0 {
                std::thread::yield_now();
            }
            let woken = parker.wakes();
            schedule(ms(20));
            schedule(ms(10));
            assert_eq!(parker.wakes(), woken, "a later timer or a tie wakes nobody");
            schedule(ms(5));
            assert_eq!(parker.wakes(), woken + 1, "a new earliest wakes the driver");
            drop(pin);
        });
        let at = |t| (ms(t), ms(t));
        assert_eq!(*ran.lock(), [at(5), at(10), at(10), at(20)]);
    }

    /// A submission made on a driver's turn wakes nobody: the driver reads
    /// the agenda on its next turn. With a second driver parked on the same
    /// parker and a worker pinning time, the parker's wake count does not
    /// move across the submit, and the submitted leg still completes at its
    /// deadline once time is let go.
    #[test]
    fn a_submit_on_a_drivers_turn_wakes_nobody() {
        use crate::clock::WorkerGuard;

        let ms = Duration::from_millis;
        let clock = Arc::new(VirtualClock::new());
        let dyn_clock = || Arc::clone(&clock) as Arc<dyn Clock>;
        let parker = Arc::new(Parker::default());
        let core = Arc::new(EventCore::new(
            Shared::Owned(dyn_clock()),
            Arc::clone(&parker),
        ));
        let provider: Vec<Arc<dyn Provider>> = vec![SimulatedProvider::builder("p", "cap")
            .latency(ms(5))
            .clock(dyn_clock())
            .build()];
        let plan: Arc<dyn Plan> = Arc::new(OwnedPlan::new(Strategy::parse("a").unwrap(), provider));
        let submit_woke = Arc::new(Mutex::new(None));
        let completed_at = Arc::new(Mutex::new(None));

        let pin = WorkerGuard::enter(&*clock);
        let drivers: Vec<_> = (0..2)
            .map(|_| {
                let (core, clock) = (Arc::clone(&core), dyn_clock());
                std::thread::spawn(move || {
                    let _driver = WorkerGuard::enter(&*clock);
                    core.run_loop(&|_| unreachable!("every leaf is timed"));
                })
            })
            .collect();
        let task = {
            let (core, parker, clock) = (Arc::clone(&core), Arc::clone(&parker), dyn_clock());
            let (submit_woke, completed_at) = (Arc::clone(&submit_woke), Arc::clone(&completed_at));
            move || {
                // The other driver found nothing to do and parked.
                let start = std::time::Instant::now();
                while parker.parked() == 0 {
                    assert!(start.elapsed() < Duration::from_secs(20), "never parked");
                    std::thread::yield_now();
                }
                let spec = RequestSpec {
                    plan: Shared::Owned(plan),
                    request: Cow::Owned(Invocation::new(1, "", vec![])),
                    budget: Budget::unlimited(),
                    policy: PolicyState::new(CompletionPolicy::FirstSuccess),
                    record_invocations: false,
                    done: Done::Call(Box::new(move |_: RequestResult| {
                        *completed_at.lock() = Some(clock.now());
                        None
                    })),
                };
                let before = parker.wakes();
                core.submit(spec, &|_| unreachable!("every leaf is timed"));
                *submit_woke.lock() = Some(parker.wakes() - before);
            }
        };
        core.post_task(Box::new(task));
        /// Spins (yielding) until `cell` is set; the watchdog of waits
        /// that end within microseconds unless a wake-up was lost.
        fn wait_for<T: Copy>(cell: &Mutex<Option<T>>) -> T {
            let start = std::time::Instant::now();
            loop {
                if let Some(value) = *cell.lock() {
                    return value;
                }
                assert!(start.elapsed() < Duration::from_secs(20), "never set");
                std::thread::yield_now();
            }
        }
        assert_eq!(
            wait_for(&submit_woke),
            0,
            "the submit woke the parked driver"
        );
        assert_eq!(clock.now(), Duration::ZERO, "pinned");
        drop(pin);
        assert_eq!(
            wait_for(&completed_at),
            ms(5),
            "the leg completed at its deadline"
        );
        core.shutdown();
        drivers.into_iter().for_each(|d| d.join().unwrap());
    }
}
