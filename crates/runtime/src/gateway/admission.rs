//! Per-service admission control: the bounded in-flight limit and the
//! class-aware wait queue every request passes before it is planned.
//!
//! Split the way the virtual clock is: [`GatePolicy`] decides, with no
//! lock, waker or telemetry, and each step returns its decision and the
//! queues it changed; [`AdmissionGate`] is the shell that locks, steps,
//! reports those queues' depths under the lock, unlocks and fires wakers.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex as StdMutex, PoisonError};

use super::handle::Handoff;
use crate::clock::Clock;
use crate::request::{QosClass, CLASS_COUNT};

/// The admission policy: a bounded in-flight limit plus a bounded,
/// **class-aware** wait queue, one FIFO of `(ticket, W)` per [`QosClass`]
/// (`W` is what a ticket waits with: the shell's [`WakerFn`]). Requests
/// beyond both bounds are shed
/// ([`RuntimeError::Overloaded`](crate::RuntimeError::Overloaded)). A
/// freed slot goes to the next waiter by smooth weighted round-robin over
/// the nonempty queues ([`pick_class`]). When the queue is full, an
/// arrival may *preempt* the newest waiter of the lowest queued class
/// ([`GatePolicy::preemption_victim`]), which is shed exactly as if it had
/// never been queued.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(super) struct GatePolicy<W> {
    /// In-flight limit (`0` = unlimited).
    limit: usize,
    /// Total queue capacity (across all classes) once the limit is reached.
    max_queue: usize,
    in_flight: usize,
    /// FIFO of `(ticket, waiter)` per class, indexed by [`QosClass::index`].
    waiting: [VecDeque<(u64, W)>; CLASS_COUNT],
    /// Smooth weighted-round-robin accumulators, one per class.
    wrr: [i64; CLASS_COUNT],
    next_ticket: u64,
}

/// The class queues a policy step changed, bit [`QosClass::index`] each.
pub(super) type Changed = u8;

const UNCHANGED: Changed = 0;

/// The waiter an arrival preempted, with the occupancy to shed it with.
pub(super) type Preempted<W> = Option<(W, Shed)>;

impl<W> GatePolicy<W> {
    pub(super) fn new(limit: usize, max_queue: usize) -> Self {
        GatePolicy {
            limit,
            max_queue,
            in_flight: 0,
            waiting: Default::default(),
            wrr: [0; CLASS_COUNT],
            next_ticket: 0,
        }
    }

    fn queued(&self) -> usize {
        self.waiting.iter().map(VecDeque::len).sum()
    }

    fn occupancy(&self) -> Shed {
        Shed {
            in_flight: self.in_flight as u64,
            queued: self.queued() as u64,
        }
    }

    /// The class index an arriving request of `class` may preempt a waiter
    /// from: the lowest-priority nonempty queue, and only when that queue
    /// is strictly lower priority than the arrival *and* either the victim
    /// is Scavenger (sheds first, to anyone higher) or the arrival is
    /// Critical (preempts every lower class).
    fn preemption_victim(&self, class: QosClass) -> Option<usize> {
        let victim = (0..CLASS_COUNT)
            .rev()
            .find(|&i| !self.waiting[i].is_empty())?;
        let lower = victim > class.index();
        let eligible = victim == QosClass::Scavenger.index() || class == QosClass::Critical;
        (lower && eligible).then_some(victim)
    }

    /// An arrival of `class`: admitted when a slot is free; otherwise
    /// queued in its class's FIFO with `queue(waiter)`'s `W` — making room
    /// by preempting a lower class's waiter when the queue is full — or
    /// shed when nobody can be preempted. `W` is built only when the
    /// ticket queues.
    pub(super) fn arrive<V, P>(
        &mut self,
        class: QosClass,
        waiter: V,
        queue: impl FnOnce(V) -> (W, P),
    ) -> ((Admission<V, P>, Preempted<W>), Changed) {
        if self.limit == 0 || self.in_flight < self.limit {
            self.in_flight += 1;
            return ((Admission::Admitted(waiter), None), UNCHANGED);
        }
        let full = self.queued() >= self.max_queue;
        let victim = full.then(|| self.preemption_victim(class)).flatten();
        if full && victim.is_none() {
            return ((Admission::Shed(self.occupancy(), waiter), None), UNCHANGED);
        }
        let preempted = victim.and_then(|v| self.waiting[v].pop_back());
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let (queued, kept) = queue(waiter);
        self.waiting[class.index()].push_back((ticket, queued));
        let preempted = preempted.map(|(_, waiter)| (waiter, self.occupancy()));
        let changed = 1 << class.index() | victim.map_or(0, |v| 1 << v);
        ((Admission::Queued(ticket, kept), preempted), changed)
    }

    /// A request is done with its slot: the slot goes straight to the next
    /// waiter by weighted pick — so a racing new arrival cannot barge past
    /// the queue — or, with nobody waiting, is freed. Returns the granted
    /// waiter.
    pub(super) fn finish(&mut self) -> (Option<W>, Changed) {
        let nonempty = std::array::from_fn(|i| !self.waiting[i].is_empty());
        let Some(class) = pick_class(&mut self.wrr, nonempty) else {
            self.in_flight -= 1;
            return (None, UNCHANGED);
        };
        let granted = self.waiting[class].pop_front().map(|(_, waiter)| waiter);
        (granted, 1 << class)
    }

    /// A queued ticket's deadline passed: withdraws it and returns its
    /// waiter, or `None` when the ticket already left the queue (granted,
    /// preempted, expired or drained).
    pub(super) fn expire(&mut self, class: QosClass, ticket: u64) -> (Option<W>, Changed) {
        let queue = &mut self.waiting[class.index()];
        let Some(position) = queue.iter().position(|&(t, _)| t == ticket) else {
            return (None, UNCHANGED);
        };
        let expired = queue.remove(position).map(|(_, waiter)| waiter);
        (expired, 1 << class.index())
    }

    /// What a step that changed the queues in `changed` reports: each
    /// changed class's depth, and the total.
    pub(super) fn depths(
        &self,
        changed: Changed,
    ) -> impl Iterator<Item = (QosClass, u64, u64)> + '_ {
        let total = self.queued() as u64;
        let changed = QosClass::ALL
            .into_iter()
            .filter(move |c| changed & 1 << c.index() != 0);
        changed.map(move |class| (class, self.waiting[class.index()].len() as u64, total))
    }

    /// The gate is closing: empties every queue and returns every waiter,
    /// class by class in FIFO order.
    pub(super) fn shutdown(&mut self) -> (Vec<W>, Changed) {
        let changed = (0..CLASS_COUNT).filter(|&i| !self.waiting[i].is_empty());
        let changed = changed.fold(UNCHANGED, |bits, i| bits | 1 << i);
        let drained = self.waiting.iter_mut().flat_map(|queue| queue.drain(..));
        (drained.map(|(_, waiter)| waiter).collect(), changed)
    }
}

/// Picks which class dequeues next by smooth weighted round-robin (the
/// nginx variant): every nonempty class gains its weight, the largest
/// accumulator wins (ties to the higher-priority class) and pays back the
/// total gained. Admissions interleave proportionally to the weights, and
/// no nonempty class starves: under any pattern of arrivals and expiries
/// a Critical, Interactive, Bulk or Scavenger waiter sees at most 3, 6,
/// 13 or 25 other picks in a row (explored to a fixpoint in the tests).
fn pick_class(wrr: &mut [i64; CLASS_COUNT], nonempty: [bool; CLASS_COUNT]) -> Option<usize> {
    let mut total = 0i64;
    let mut best: Option<usize> = None;
    for (index, has_waiters) in nonempty.iter().enumerate() {
        if !has_waiters {
            continue;
        }
        let weight = i64::from(QosClass::ALL[index].weight());
        wrr[index] += weight;
        total += weight;
        if best.is_none_or(|b| wrr[index] > wrr[b]) {
            best = Some(index);
        }
    }
    let winner = best?;
    wrr[winner] -= total;
    Some(winner)
}

/// Gate occupancy at the instant a request was shed, read under the gate
/// lock.
pub(super) struct Shed {
    pub(super) in_flight: u64,
    pub(super) queued: u64,
}

/// How a request left admission. Delivered to a queued ticket's
/// [`WakerFn`] exactly once.
pub(super) enum AdmitOutcome {
    /// A freed in-flight slot was handed to this ticket (the slot is
    /// already counted; the waiter wraps it with
    /// [`AdmissionGate::permit`]).
    Granted,
    /// Shed: on arrival (queue full and nobody to preempt), or later,
    /// preempted out of its queue slot by a higher-class arrival.
    Shed(Shed),
    /// The queue-wait deadline expired before a slot freed up.
    Expired,
    /// The gateway is shutting down; no slot will ever be granted.
    Shutdown,
}

/// Continuation of a queued ticket, always invoked after the gate lock is
/// released. A closure is one; so is an asynchronous request's `Flight`,
/// which carries the request on in the same box.
pub(super) trait OnAdmit: Send {
    fn fire(self: Box<Self>, outcome: AdmitOutcome);
}

impl<F: FnOnce(AdmitOutcome) + Send> OnAdmit for F {
    fn fire(self: Box<Self>, outcome: AdmitOutcome) {
        (*self)(outcome);
    }
}

/// A boxed [`OnAdmit`].
pub(super) type WakerFn = Box<dyn OnAdmit>;

/// Where the gate reports a queue's depth after a step changed it:
/// `(class, class depth, total depth)`.
pub(super) type DepthSink = Box<dyn Fn(QosClass, u64, u64) + Send + Sync>;

/// Immediate result of an arrival. The waiter `V` becomes a waker only
/// when the ticket actually queues; otherwise it comes back to the caller
/// unused.
pub(super) enum Admission<V, P> {
    /// A slot was free: the request is in flight.
    Admitted(V),
    /// The request waits in its class queue under this ticket; `P` is what
    /// the caller's `enqueue` kept back for itself.
    Queued(u64, P),
    /// Queue full and nobody to preempt.
    Shed(Shed, V),
}

/// The shell every request of a service passes: the [`GatePolicy`] behind
/// one lock, with a [`WakerFn`] as each queued ticket's continuation,
/// fired exactly once when the ticket leaves the queue. An asynchronous
/// request's waker continues it on the event loop; a blocking caller's
/// resolves the [`Handoff`] it waits on ([`AdmissionGate::admit_blocking`]).
pub(super) struct AdmissionGate {
    policy: StdMutex<GatePolicy<WakerFn>>,
    /// Called under the lock for every queue a step changed, so depths
    /// land in step order and a late report never overwrites a newer one.
    depth_sink: DepthSink,
}

impl AdmissionGate {
    /// A gate is always shared: its permits own it.
    pub(super) fn new(limit: usize, max_queue: usize, depth_sink: DepthSink) -> Arc<Self> {
        Arc::new(AdmissionGate {
            policy: StdMutex::new(GatePolicy::new(limit, max_queue)),
            depth_sink,
        })
    }

    /// Takes the lock, applies one policy step and reports the depths it
    /// changed; the lock is released on return, before the caller fires
    /// whatever the step handed back.
    fn step<D>(&self, step: impl FnOnce(&mut GatePolicy<WakerFn>) -> (D, Changed)) -> D {
        let mut policy = self.policy.lock().unwrap_or_else(PoisonError::into_inner);
        let (decision, changed) = step(&mut policy);
        if changed != UNCHANGED {
            self.report(&policy, changed);
        }
        decision
    }

    /// Reports each changed queue's depth and the total. Out of line: in
    /// `step`, it cost an uncontended admit and release about 10 ns.
    #[cold]
    fn report(&self, policy: &GatePolicy<WakerFn>, changed: Changed) {
        for (class, depth, total) in policy.depths(changed) {
            (self.depth_sink)(class, depth, total);
        }
    }

    /// [`GatePolicy::arrive`] with `enqueue(waiter)`'s waker as the queued
    /// continuation. Never blocks; a preempted waiter is shed after unlock.
    pub(super) fn admit<V, P>(
        &self,
        class: QosClass,
        waiter: V,
        enqueue: impl FnOnce(V) -> (WakerFn, P),
    ) -> Admission<V, P> {
        let (admission, preempted) = self.step(|policy| policy.arrive(class, waiter, enqueue));
        if let Some((waker, occupancy)) = preempted {
            waker.fire(AdmitOutcome::Shed(occupancy));
        }
        admission
    }

    /// [`AdmissionGate::admit`] for a caller that waits on its own thread:
    /// a queued caller waits on the [`Handoff`] its ticket resolves (see
    /// [`Handoff::wait`] for a registered worker's passive mark).
    pub(super) fn admit_blocking(&self, class: QosClass, clock: &Arc<dyn Clock>) -> AdmitOutcome {
        let enqueue = |()| {
            let handoff = Arc::new(Handoff::new(Arc::clone(clock)));
            (Box::new(Blocked(Arc::clone(&handoff))) as WakerFn, handoff)
        };
        match self.admit(class, (), enqueue) {
            Admission::Admitted(()) => AdmitOutcome::Granted,
            Admission::Shed(shed, ()) => AdmitOutcome::Shed(shed),
            Admission::Queued(_, handoff) => handoff.wait(),
        }
    }

    /// [`GatePolicy::expire`]: fails a still-queued ticket with
    /// [`AdmitOutcome::Expired`]. A ticket that already left the queue has
    /// had its waker fired, or is about to: nothing happens then.
    pub(super) fn cancel_ticket(&self, class: QosClass, ticket: u64) {
        if let Some(waker) = self.step(|policy| policy.expire(class, ticket)) {
            waker.fire(AdmitOutcome::Expired);
        }
    }

    /// Fails every queued waiter with [`AdmitOutcome::Shutdown`], so a
    /// closing gateway leaves no waiter pending forever.
    pub(super) fn shutdown(&self) {
        for waker in self.step(GatePolicy::shutdown) {
            waker.fire(AdmitOutcome::Shutdown);
        }
    }

    /// Wraps an in-flight slot this gate already counts — an
    /// [`Admission::Admitted`] return or an [`AdmitOutcome::Granted`] wake —
    /// so it is released when the request is done with it.
    pub(super) fn permit(self: &Arc<Self>) -> AdmissionPermit {
        AdmissionPermit {
            gate: Arc::clone(self),
        }
    }
}

/// A queued blocking caller's continuation, resolving its [`Handoff`].
/// Like a `Flight`, it resolves `Shutdown` if dropped unfired (its gate gone
/// with the ticket queued, or a panic in a waker fired before it).
struct Blocked(Arc<Handoff<AdmitOutcome>>);

impl OnAdmit for Blocked {
    fn fire(self: Box<Self>, outcome: AdmitOutcome) {
        self.0.finish(outcome); // the drop's resolve that follows is lost
    }
}

impl Drop for Blocked {
    fn drop(&mut self) {
        self.0.finish(AdmitOutcome::Shutdown);
    }
}

/// RAII admission slot: dropping it hands the slot to the next queued
/// waiter (weighted pick across the class queues) or, with nobody
/// waiting, releases it. Owns its gate, so an asynchronous request —
/// whose submitter returns before the request resolves — can carry its
/// slot through the event loop.
pub(super) struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(waker) = self.gate.step(GatePolicy::finish) {
            waker.fire(AdmitOutcome::Granted);
        }
    }
}

#[cfg(test)]
mod tests {
    mod explore;

    use std::sync::atomic::Ordering;

    use super::*;
    use crate::clock::WallClock;

    /// Satellite property test: smooth weighted round-robin never starves
    /// a queue that stays nonempty, whatever the (seeded pseudo-random)
    /// pattern of nonempty classes around it.
    #[test]
    fn weighted_dequeue_never_starves_a_nonempty_class() {
        let total_weight: i64 = QosClass::ALL.iter().map(|c| i64::from(c.weight())).sum();

        // With every queue backlogged, picks match the weights exactly.
        let mut wrr = [0i64; CLASS_COUNT];
        let mut picks = [0usize; CLASS_COUNT];
        for _ in 0..10 * total_weight {
            let picked = pick_class(&mut wrr, [true; CLASS_COUNT]).unwrap();
            picks[picked] += 1;
        }
        assert_eq!(picks, [80, 40, 20, 10], "10 cycles of 8/4/2/1");

        // Seeded LCG → deterministic "random" nonempty patterns.
        let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rand = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) as usize
        };
        let bound = (4 * total_weight) as usize;
        let mut wrr = [0i64; CLASS_COUNT];
        let mut unserved = [0usize; CLASS_COUNT];
        for round in 0..10_000 {
            let mask = (rand() & 0xF).max(1); // nonempty subset of the 4 classes
            let nonempty: [bool; CLASS_COUNT] = std::array::from_fn(|i| mask & (1 << i) != 0);
            let picked = pick_class(&mut wrr, nonempty).expect("subset is nonempty");
            assert!(nonempty[picked], "picked an empty queue in round {round}");
            for (class, gap) in unserved.iter_mut().enumerate() {
                if !nonempty[class] || class == picked {
                    // An empty queue cannot be starved; a served one isn't.
                    *gap = 0;
                } else {
                    *gap += 1;
                    assert!(
                        *gap <= bound,
                        "class {class} went {gap} picks unserved while nonempty (round {round})"
                    );
                }
            }
        }
        assert_eq!(pick_class(&mut wrr, [false; CLASS_COUNT]), None);
    }

    #[test]
    fn preemption_sheds_scavengers_first_and_lets_critical_preempt() {
        let victim = GatePolicy::preemption_victim;
        let mut state = GatePolicy::new(1, 1);
        assert_eq!(victim(&state, QosClass::Critical), None, "empty queue");

        state.waiting[QosClass::Scavenger.index()].push_back((1, ()));
        assert_eq!(
            victim(&state, QosClass::Bulk),
            Some(QosClass::Scavenger.index()),
            "a Scavenger slot sheds to any higher class"
        );
        assert_eq!(victim(&state, QosClass::Scavenger), None, "not to a peer");

        state.waiting[QosClass::Scavenger.index()].clear();
        state.waiting[QosClass::Bulk.index()].push_back((2, ()));
        assert_eq!(
            victim(&state, QosClass::Interactive),
            None,
            "only Critical preempts non-Scavenger classes"
        );
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Bulk.index())
        );

        state.waiting[QosClass::Interactive.index()].push_back((3, ()));
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Bulk.index()),
            "the lowest queued class is the victim"
        );
        state.waiting[QosClass::Bulk.index()].clear();
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Interactive.index())
        );

        state.waiting[QosClass::Interactive.index()].clear();
        state.waiting[QosClass::Critical.index()].push_back((4, ()));
        assert_eq!(
            victim(&state, QosClass::Critical),
            None,
            "Critical never preempts Critical"
        );
    }

    /// Bugfix regression: handing out a queue slot used to
    /// `expect("victim class has waiters")` / `expect("class is
    /// nonempty")` on a queue snapshot. With asynchronous tickets a queued
    /// waiter can leave through a third door — its queue deadline
    /// cancelling the ticket. Each door takes the ticket and its waker
    /// together under the gate lock; race cancellation against preemption
    /// and grant on the real mutex, on every side of the gate.
    #[test]
    fn ticket_cancellation_racing_preemption_and_release_never_panics() {
        use std::sync::atomic::AtomicUsize;

        let gate = AdmissionGate::new(1, 2, Box::new(|_, _, _| {}));
        // Occupy the single in-flight slot for the whole race so every
        // arrival goes through the queue paths.
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let permit = match gate.admit_blocking(QosClass::Bulk, &clock) {
            AdmitOutcome::Granted => gate.permit(),
            _ => panic!("empty gate admits"),
        };
        let fired = Arc::new(AtomicUsize::new(0));
        let rounds = 200;
        std::thread::scope(|scope| {
            // Scavengers queue asynchronously and their tickets are
            // cancelled concurrently (the queue-deadline path).
            let canceller = {
                let gate = Arc::clone(&gate);
                let fired = Arc::clone(&fired);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        let fired = Arc::clone(&fired);
                        let waker: WakerFn = Box::new(move |_: AdmitOutcome| {
                            fired.fetch_add(1, Ordering::SeqCst);
                        });
                        match gate.admit(QosClass::Scavenger, waker, |w| (w, ())) {
                            Admission::Queued(ticket, ()) => {
                                std::thread::yield_now();
                                gate.cancel_ticket(QosClass::Scavenger, ticket);
                            }
                            Admission::Admitted(_) => {
                                panic!("the slot is held for the whole race")
                            }
                            Admission::Shed(_, waker) => waker.fire(AdmitOutcome::Shutdown),
                        }
                    }
                })
            };
            // Critical arrivals preempt whatever Scavenger is queued.
            let preemptor = {
                let gate = Arc::clone(&gate);
                let fired = Arc::clone(&fired);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        let fired = Arc::clone(&fired);
                        let waker: WakerFn = Box::new(move |_: AdmitOutcome| {
                            fired.fetch_add(1, Ordering::SeqCst);
                        });
                        match gate.admit(QosClass::Critical, waker, |w| (w, ())) {
                            Admission::Queued(ticket, ()) => {
                                gate.cancel_ticket(QosClass::Critical, ticket);
                            }
                            Admission::Admitted(_) => {
                                panic!("the slot is held for the whole race")
                            }
                            Admission::Shed(_, waker) => waker.fire(AdmitOutcome::Shutdown),
                        }
                    }
                })
            };
            canceller.join().unwrap();
            preemptor.join().unwrap();
        });
        // Every ticket's waker fired exactly once (cancelled, preempted,
        // or shed) or is still queued; nothing double-fired or vanished.
        let state = gate.policy.lock().unwrap();
        assert_eq!(state.in_flight, 1, "the held slot is still counted");
        let queued = state.queued();
        drop(state);
        assert_eq!(
            fired.load(Ordering::SeqCst) + queued,
            2 * rounds,
            "each ticket resolved exactly once"
        );
        drop(permit);
    }
}
