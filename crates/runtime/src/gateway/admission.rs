//! Per-service admission control: the bounded in-flight limit and the
//! class-aware wait queue every request passes before it is planned.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Mutex as StdMutex, MutexGuard, PoisonError};

use crate::clock::{passively, Clock};
use crate::request::{QosClass, CLASS_COUNT};

/// Per-service admission control: a bounded in-flight limit plus a
/// bounded, **class-aware** wait queue. Requests beyond both bounds are
/// shed ([`RuntimeError::Overloaded`](crate::RuntimeError::Overloaded))
/// instead of piling up unboundedly.
///
/// The queue is one FIFO per [`QosClass`]. A freed in-flight slot is
/// handed to the next waiter by smooth weighted round-robin over the
/// nonempty class queues ([`pick_class`]), so a backlogged service serves
/// classes in proportion to [`QosClass::weight`] without ever starving a
/// nonempty queue. When every queue slot is taken, an arriving request may
/// *preempt* the newest waiter of the lowest queued class
/// ([`AdmissionGate::preemption_victim`]): Scavenger waiters shed first to
/// any higher class, and Critical arrivals preempt any lower class. The
/// preempted waiter wakes and is shed exactly as if it had never been
/// queued.
///
/// Every queued ticket owns a [`WakerFn`], fired exactly once when the
/// ticket leaves the queue. An asynchronous request's waker continues it
/// on the event loop; a blocking caller's waker fills the per-waiter slot
/// the caller parks on ([`AdmissionGate::admit_blocking`]). That park is a
/// plain OS wait, *not* the execution clock: an *unregistered* caller's
/// wait stays invisible to [`VirtualClock`](crate::VirtualClock)
/// accounting (the clock only advances over registered workers' sleeps); a
/// caller that **is** a registered clock worker (e.g. a load generator
/// that registers its client threads so virtual time cannot advance past
/// them before they issue their request) is marked passive for the
/// duration of the wait, so a queued worker never stalls the in-flight
/// requests it is waiting on.
pub(super) struct AdmissionGate {
    /// In-flight limit (`0` = unlimited).
    limit: usize,
    /// Total queue capacity (across all classes) once the limit is reached.
    max_queue: usize,
    state: StdMutex<GateState>,
}

#[derive(Default)]
struct GateState {
    in_flight: usize,
    /// FIFO of waiter tickets per class, indexed by [`QosClass::index`].
    waiting: [VecDeque<u64>; CLASS_COUNT],
    /// Smooth weighted-round-robin accumulators, one per class.
    wrr: [i64; CLASS_COUNT],
    /// Continuation of every queued ticket. The waker is removed together
    /// with its ticket — on grant, preemption, or cancellation — so it
    /// fires exactly once.
    wakers: HashMap<u64, WakerFn>,
    next_ticket: u64,
}

impl GateState {
    fn queued(&self) -> usize {
        self.waiting.iter().map(VecDeque::len).sum()
    }

    fn occupancy(&self) -> Shed {
        Shed {
            in_flight: self.in_flight as u64,
            queued: self.queued() as u64,
        }
    }

    /// Reports `(class, class depth, total depth)` after `class`'s queue
    /// changed.
    fn report_depth(&self, class: QosClass, on_queue_depth: impl Fn(QosClass, u64, u64)) {
        on_queue_depth(
            class,
            self.waiting[class.index()].len() as u64,
            self.queued() as u64,
        );
    }
}

/// Picks which class dequeues next by smooth weighted round-robin (the
/// nginx variant): every nonempty class gains its weight, the largest
/// accumulator wins (ties to the higher-priority class) and pays back the
/// total gained. Admissions interleave proportionally to the weights, and
/// a class whose queue stays nonempty is picked at least once every
/// `total_weight` picks — no nonempty class is ever starved.
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
/// released.
pub(super) type WakerFn = Box<dyn FnOnce(AdmitOutcome) + Send>;

/// Immediate result of an admission attempt. The waiter `W` becomes a
/// waker only when the ticket actually queues; otherwise it comes back to
/// the caller unused.
pub(super) enum Admission<W, P> {
    /// A slot was free: the request is in flight.
    Admitted(W),
    /// The request waits in its class queue under this ticket; `P` is what
    /// the caller's `enqueue` kept back for itself.
    Queued(u64, P),
    /// Queue full and nobody to preempt.
    Shed(Shed, W),
}

impl AdmissionGate {
    /// A gate is always shared: its permits own it.
    pub(super) fn new(limit: usize, max_queue: usize) -> Arc<Self> {
        Arc::new(AdmissionGate {
            limit,
            max_queue,
            state: StdMutex::new(GateState::default()),
        })
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The class index an arriving request of `class` may preempt a waiter
    /// from: the lowest-priority nonempty queue, and only when that queue
    /// is strictly lower priority than the arrival *and* either the victim
    /// is Scavenger (sheds first, to anyone higher) or the arrival is
    /// Critical (preempts every lower class).
    fn preemption_victim(state: &GateState, class: QosClass) -> Option<usize> {
        let victim = (0..CLASS_COUNT)
            .rev()
            .find(|&i| !state.waiting[i].is_empty())?;
        let lower = victim > class.index();
        let eligible = victim == QosClass::Scavenger.index() || class == QosClass::Critical;
        (lower && eligible).then_some(victim)
    }

    /// Makes room for an arriving `class` request when the queue is full:
    /// evicts the newest waiter of the lowest eligible class and returns
    /// its waker, or `Err` when nobody is eligible and the arrival itself
    /// is shed. The chosen queue's occupancy is re-checked under the lock
    /// on every iteration — a victim ticket can leave the queue through
    /// another door (its queue deadline cancelling it, a freed slot
    /// granting it), so an empty pop falls through to the next candidate
    /// instead of panicking on a stale "has waiters" snapshot.
    fn preempt_for(state: &mut GateState, class: QosClass) -> Result<WakerFn, Shed> {
        loop {
            let Some(victim_class) = Self::preemption_victim(state, class) else {
                return Err(state.occupancy());
            };
            let ticket = state.waiting[victim_class].pop_back();
            if let Some(waker) = ticket.and_then(|ticket| state.wakers.remove(&ticket)) {
                return Ok(waker);
            }
        }
    }

    /// Admits the request when a slot is free; otherwise queues it in its
    /// class's FIFO with `enqueue(waiter)`'s waker as its continuation — or
    /// sheds it when the queue is full and nobody can be preempted. Never
    /// blocks, and builds the waker only when the ticket queues.
    /// `on_queue_depth` is called with `(class, class depth, total depth)`
    /// when the ticket enters the queue.
    pub(super) fn admit<W, P>(
        &self,
        class: QosClass,
        waiter: W,
        enqueue: impl FnOnce(W) -> (WakerFn, P),
        on_queue_depth: impl Fn(QosClass, u64, u64),
    ) -> Admission<W, P> {
        let mut state = self.lock();
        if self.limit == 0 || state.in_flight < self.limit {
            state.in_flight += 1;
            return Admission::Admitted(waiter);
        }
        let mut evicted = None;
        if state.queued() >= self.max_queue {
            // Queue full. Either a lower-class waiter gives up its slot to
            // this arrival, or the arrival itself is shed.
            match Self::preempt_for(&mut state, class) {
                Ok(waker) => evicted = Some(waker),
                Err(shed) => return Admission::Shed(shed, waiter),
            }
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let (waker, parked) = enqueue(waiter);
        state.waiting[class.index()].push_back(ticket);
        state.wakers.insert(ticket, waker);
        state.report_depth(class, on_queue_depth);
        let occupancy = state.occupancy();
        drop(state);
        if let Some(waker) = evicted {
            waker(AdmitOutcome::Shed(occupancy));
        }
        Admission::Queued(ticket, parked)
    }

    /// [`AdmissionGate::admit`] for a caller that waits on its own thread:
    /// a queued caller parks until its ticket's waker fires, marked passive
    /// on `clock` if it is a registered worker (see the type docs).
    /// `on_queue_depth` is also called when the caller leaves the queue.
    pub(super) fn admit_blocking(
        &self,
        class: QosClass,
        clock: &dyn Clock,
        on_queue_depth: impl Fn(QosClass, u64, u64),
    ) -> AdmitOutcome {
        // The per-waiter slot: the ticket's waker fills it, the caller
        // (its only receiver) parks on it.
        let enqueue = |()| {
            let (fill, parked) = mpsc::sync_channel(1);
            let waker: WakerFn = Box::new(move |outcome| {
                let _ = fill.send(outcome);
            });
            (waker, parked)
        };
        let parked = match self.admit(class, (), enqueue, &on_queue_depth) {
            Admission::Admitted(()) => return AdmitOutcome::Granted,
            Admission::Shed(shed, ()) => return AdmitOutcome::Shed(shed),
            Admission::Queued(_, parked) => parked,
        };
        // A waker dropped unfired means its gate is gone.
        let outcome = passively(clock, || parked.recv().unwrap_or(AdmitOutcome::Shutdown));
        self.lock().report_depth(class, on_queue_depth);
        outcome
    }

    /// Withdraws a queued ticket, returning its waker if the ticket was
    /// still waiting. `None` means the ticket already left the queue
    /// (granted, preempted, or cancelled) and its waker has fired or is
    /// about to — the caller must then do nothing.
    pub(super) fn cancel_ticket(
        &self,
        class: QosClass,
        ticket: u64,
        on_queue_depth: impl Fn(QosClass, u64, u64),
    ) -> Option<WakerFn> {
        let mut state = self.lock();
        let index = class.index();
        let pos = state.waiting[index].iter().position(|&t| t == ticket)?;
        state.waiting[index].remove(pos);
        let waker = state.wakers.remove(&ticket);
        state.report_depth(class, on_queue_depth);
        waker
    }

    /// Empties the queue and returns every waker, so shutdown can fail the
    /// waiters instead of leaving them pending forever.
    pub(super) fn drain(&self) -> Vec<WakerFn> {
        let mut state = self.lock();
        state.waiting.iter_mut().for_each(VecDeque::clear);
        state.wakers.drain().map(|(_, waker)| waker).collect()
    }

    /// Wraps an in-flight slot this gate already counts — an
    /// [`Admission::Admitted`] return or an [`AdmitOutcome::Granted`] wake —
    /// so it is released when the request is done with it.
    pub(super) fn permit(self: &Arc<Self>) -> AdmissionPermit {
        AdmissionPermit {
            gate: Arc::clone(self),
        }
    }

    /// Releases one in-flight slot: hands it to the next queued waiter
    /// (weighted pick across the class queues) or, with nobody waiting,
    /// frees it. As in [`AdmissionGate::preempt_for`], the picked class's
    /// occupancy is re-checked under the lock — an empty pop retries the
    /// pick instead of panicking on a stale "is nonempty" snapshot.
    fn release_slot(&self) {
        let mut state = self.lock();
        let waker = loop {
            let nonempty = std::array::from_fn(|i| !state.waiting[i].is_empty());
            let Some(class) = pick_class(&mut state.wrr, nonempty) else {
                state.in_flight -= 1;
                return;
            };
            // Hand the slot straight to the chosen waiter instead of
            // freeing it, so a racing new arrival cannot barge past the
            // queue.
            let ticket = state.waiting[class].pop_front();
            if let Some(waker) = ticket.and_then(|ticket| state.wakers.remove(&ticket)) {
                break waker;
            }
        };
        drop(state);
        waker(AdmitOutcome::Granted);
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
        self.gate.release_slot();
    }
}

#[cfg(test)]
mod tests {
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
        let victim = AdmissionGate::preemption_victim;
        let mut state = GateState::default();
        assert_eq!(victim(&state, QosClass::Critical), None, "empty queue");

        state.waiting[QosClass::Scavenger.index()].push_back(1);
        assert_eq!(
            victim(&state, QosClass::Bulk),
            Some(QosClass::Scavenger.index()),
            "a Scavenger slot sheds to any higher class"
        );
        assert_eq!(victim(&state, QosClass::Scavenger), None, "not to a peer");

        state.waiting[QosClass::Scavenger.index()].clear();
        state.waiting[QosClass::Bulk.index()].push_back(2);
        assert_eq!(
            victim(&state, QosClass::Interactive),
            None,
            "only Critical preempts non-Scavenger classes"
        );
        assert_eq!(
            victim(&state, QosClass::Critical),
            Some(QosClass::Bulk.index())
        );

        state.waiting[QosClass::Interactive.index()].push_back(3);
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
        state.waiting[QosClass::Critical.index()].push_back(4);
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
    /// cancelling the ticket — so preemption and release now re-check
    /// occupancy and fall through instead of panicking. Race cancellation
    /// against preemption and grant on every side of the gate.
    #[test]
    fn ticket_cancellation_racing_preemption_and_release_never_panics() {
        use std::sync::atomic::AtomicUsize;

        let gate = AdmissionGate::new(1, 2);
        // Occupy the single in-flight slot for the whole race so every
        // arrival goes through the queue paths.
        let permit = match gate.admit_blocking(QosClass::Bulk, &WallClock::new(), |_, _, _| {}) {
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
                        let waker: WakerFn = Box::new(move |_| {
                            fired.fetch_add(1, Ordering::SeqCst);
                        });
                        match gate.admit(QosClass::Scavenger, waker, |w| (w, ()), |_, _, _| {}) {
                            Admission::Queued(ticket, ()) => {
                                std::thread::yield_now();
                                if let Some(waker) =
                                    gate.cancel_ticket(QosClass::Scavenger, ticket, |_, _, _| {})
                                {
                                    waker(AdmitOutcome::Expired);
                                }
                            }
                            Admission::Admitted(_) => {
                                panic!("the slot is held for the whole race")
                            }
                            Admission::Shed(_, waker) => waker(AdmitOutcome::Shutdown),
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
                        let waker: WakerFn = Box::new(move |_| {
                            fired.fetch_add(1, Ordering::SeqCst);
                        });
                        match gate.admit(QosClass::Critical, waker, |w| (w, ()), |_, _, _| {}) {
                            Admission::Queued(ticket, ()) => {
                                if let Some(waker) =
                                    gate.cancel_ticket(QosClass::Critical, ticket, |_, _, _| {})
                                {
                                    waker(AdmitOutcome::Expired);
                                }
                            }
                            Admission::Admitted(_) => {
                                panic!("the slot is held for the whole race")
                            }
                            Admission::Shed(_, waker) => waker(AdmitOutcome::Shutdown),
                        }
                    }
                })
            };
            canceller.join().unwrap();
            preemptor.join().unwrap();
        });
        // Every ticket's waker fired exactly once (cancelled, preempted,
        // or shed) or is still queued; nothing double-fired or vanished.
        let state = gate.state.lock().unwrap();
        assert_eq!(state.in_flight, 1, "the held slot is still counted");
        assert_eq!(
            state.queued(),
            state.wakers.len(),
            "every queued ticket still owns exactly one waker"
        );
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
