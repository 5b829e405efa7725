//! A request's life across the seams: every operation sequence of a small
//! request program, run through the production steps of the three machines
//! an asynchronous request passes — the admission policy ([`GatePolicy`],
//! with the depth report its shell makes from each step's `Changed` bits),
//! the event core's wake machine ([`Agenda`]) and the handle
//! ([`HandleState`]) — joined the way `submit_async`, its waiter, its
//! continuation ([`continued`], [`release_after`]) and `Gateway::drop` join
//! them. Each machine has an explorer of its own; this one looks at what
//! happens between them.
//!
//! The shells apply an effect at once here (a rouse wakes every parked
//! driver in the step that armed it; a resolve off a loop's turn wakes its
//! waiter in the step that resolved it): the event core's explorer walks
//! the deferred halves of those. From an empty gateway at instant 0, the
//! walk takes every sequence over:
//! - submit of a request with a class and a queue deadline (none, or one
//!   or two ticks away), up to a bound;
//! - a driver's turn, which runs what the agenda hands it: a continuation
//!   (its `prepare` succeeding, failing or panicking), a queue-deadline
//!   cancel, or a leaf completing one tick after its request entered the
//!   engine — whose `done` resolves the handle, then releases the slot,
//!   which the gate grants to the next waiter (a grant) — or a park, or a
//!   stop;
//! - a clock jump to the earliest parked deadline, once every driver is
//!   parked;
//! - `wait` and `try_wait` on a handle, and a woken waiter collecting;
//! - the gateway dropping: its gates shut, then its core.
//!
//! A preemption is a submit into a full queue. Sequences that reach the
//! same state are merged and counted, not walked twice, and a level that
//! reaches no new state closes the walk.
//!
//! Checked after every step:
//! 1. every handle resolves exactly once — its first resolve wins, every
//!    later one is lost — with a response, `Overloaded`,
//!    `DeadlineExceeded`, `Generation`, `Shutdown`, or the panic its
//!    preparation raised;
//! 2. a slot is held from its grant until after its handle resolves, and
//!    is released once;
//! 3. a request never enters the engine at or past its deadline, and a
//!    wake reaches the waiter it is owed to;
//! 4. the queue-depth gauge equals the gate's queued tickets, class by
//!    class and in total;
//! 5. once the gateway has dropped and its drivers stopped, or while every
//!    driver is parked with nothing left to do, every handle is resolved,
//!    no waiter stays parked, and (gateway live) every slot is released;
//! 6. a driver keeps running after a continuation panics.
//!
//! and, at the larger bound, a request's life does not depend on which
//! driver ran it: the walk with two drivers reaches exactly the request
//! states (stage, slot, handle, waiter, when it entered the engine, what
//! it resolved with and when) that the walk with one does.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use super::super::admission::{Admission, Changed, GatePolicy};
use super::super::handle::{HandleState, Resolved};
use super::super::{continued, release_after, Continued};
use crate::engine::event::{Agenda, Effect, Turn, Wakes};
use crate::message::RuntimeError;
use crate::request::{QosClass, CLASS_COUNT};

/// An instant, in whole ticks.
type Tick = u8;

fn at(tick: Tick) -> Duration {
    Duration::from_millis(u64::from(tick))
}

/// A leaf's latency.
const LEAF: Tick = 1;

/// What the agenda holds: a granted request's continuation (posted), a
/// queued ticket's cancel and a leaf's completion (timers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Ev {
    Continue(u8),
    Cancel(u8, u64),
    Leaf(u8),
}

/// What a handle resolves with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Outcome {
    Response,
    Overloaded,
    DeadlineExceeded,
    Generation,
    Shutdown,
    Panicked,
}

/// What a continuation's `prepare` does.
#[derive(Clone, Copy, Debug)]
enum Prep {
    Succeeds,
    Fails,
    Panics,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A request of this class, with its deadline this many ticks away.
    Submit(QosClass, Option<Tick>),
    Turn(usize, Prep),
    Jump,
    TryWait(u8),
    Wait(u8),
    DropGate,
    DropCore,
}

/// Where a request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Stage {
    New,
    Queued(u64),
    /// Granted: its continuation is posted.
    Posted,
    Engine,
    Out,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Slot {
    Unheld,
    Held,
    Released,
}

/// What its submitter holds or does. A woken waiter collects as it
/// wakes: nothing but a lost resolve can reach the handle in between.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Client {
    /// `submit_async` returned an error: no handle.
    Refused,
    Holding,
    Parked,
    Collected,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Req {
    class: QosClass,
    deadline: Option<Tick>,
    stage: Stage,
    slot: Slot,
    handle: HandleState<Outcome, u8>,
    /// The shell's `done` mirror.
    done: bool,
    client: Client,
    resolved: Option<Outcome>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Phase {
    Running,
    Parked(Option<Tick>),
    Stopped,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Driver {
    phase: Phase,
    /// The requests whose wake-ups it holds until its turn parks or stops.
    held: Vec<u8>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Life {
    Live,
    /// `Gateway::drop` has begun and shut the gates: no submit, and a
    /// continuation's upgrade of its gateway fails.
    GateShut,
    CoreShut,
}

/// What a release logs, in order, so rule 2 can read which came first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    Resolved(u8),
    Released(u8),
}

thread_local! {
    static LOG: RefCell<Vec<Mark>> = const { RefCell::new(Vec::new()) };
}

fn log(mark: Mark) {
    LOG.with(|log| log.borrow_mut().push(mark));
}

/// A request's admission slot, as [`release_after`] sees it.
struct Permit(u8);

impl Drop for Permit {
    fn drop(&mut self) {
        log(Mark::Released(self.0));
    }
}

/// The walk's bounds.
#[derive(Clone, Copy, Debug)]
struct Bound {
    drivers: usize,
    requests: u8,
    classes: &'static [QosClass],
    deadlines: &'static [Option<Tick>],
    limit: usize,
    queue: usize,
}

#[derive(Clone)]
struct Node {
    gate: GatePolicy<u8>,
    agenda: Agenda<Ev>,
    reqs: Vec<Req>,
    drivers: Vec<Driver>,
    now: Tick,
    /// The depth gauges: per class, and the total.
    gauge: [u64; CLASS_COUNT],
    total: u64,
    life: Life,
}

/// A state's fingerprint: two 64-bit hashes of everything that decides
/// its future. Full keys for the larger bound's few million states took
/// gigabytes; two fingerprints collide with odds of about 2^-87 there,
/// which would merge two states and leave one unwalked.
type Key = (u64, u64);

impl Node {
    fn new(bound: Bound) -> Self {
        let driver = Driver {
            phase: Phase::Running,
            held: Vec::new(),
        };
        Node {
            gate: GatePolicy::new(bound.limit, bound.queue),
            agenda: Agenda::new(),
            reqs: Vec::new(),
            drivers: vec![driver; bound.drivers],
            now: 0,
            gauge: [0; CLASS_COUNT],
            total: 0,
            life: Life::Live,
        }
    }

    fn key(&self) -> Key {
        let state = (
            &self.gate,
            self.agenda.contents(),
            &self.reqs,
            &self.drivers,
            (self.now, self.gauge, self.total, self.life),
        );
        let hash = |salt: u8| {
            let mut hasher = DefaultHasher::new();
            (salt, &state).hash(&mut hasher);
            hasher.finish()
        };
        (hash(0), hash(1))
    }

    /// The event a driver's next turn runs, if any.
    fn next_event(&self) -> Option<Ev> {
        let (ready, timers, _, shutdown) = self.agenda.contents();
        let due = timers
            .first()
            .filter(|&&(deadline, _)| deadline <= at(self.now));
        (!shutdown).then(|| ready.first().copied().or(due.map(|&(_, ev)| ev)))?
    }

    fn ops(&self, bound: Bound) -> Vec<Op> {
        let mut ops = Vec::new();
        if self.life == Life::Live && self.reqs.len() < usize::from(bound.requests) {
            for &class in bound.classes {
                ops.extend(bound.deadlines.iter().map(|&d| Op::Submit(class, d)));
            }
        }
        let continuation = matches!(self.next_event(), Some(Ev::Continue(_)));
        for (d, driver) in self.drivers.iter().enumerate() {
            if driver.phase != Phase::Running {
                continue;
            }
            if continuation {
                ops.extend([Prep::Succeeds, Prep::Fails, Prep::Panics].map(|p| Op::Turn(d, p)));
            } else {
                ops.push(Op::Turn(d, Prep::Succeeds));
            }
        }
        if self.jump_target().is_some() {
            ops.push(Op::Jump);
        }
        for (i, req) in (0..).zip(&self.reqs) {
            match req.client {
                Client::Holding => {
                    ops.push(Op::Wait(i));
                    if req.done {
                        ops.push(Op::TryWait(i));
                    }
                }
                Client::Refused | Client::Parked | Client::Collected => {}
            }
        }
        match self.life {
            Life::Live => ops.push(Op::DropGate),
            Life::GateShut => ops.push(Op::DropCore),
            Life::CoreShut => {}
        }
        ops
    }

    /// Where a jump would take the clock: once every live driver is parked,
    /// to the earliest parked deadline.
    fn jump_target(&self) -> Option<Tick> {
        let mut target = None;
        for driver in &self.drivers {
            match driver.phase {
                Phase::Parked(Some(deadline)) => {
                    target = Some(target.map_or(deadline, |t: Tick| t.min(deadline)));
                }
                Phase::Parked(None) | Phase::Stopped => {}
                Phase::Running => return None,
            }
        }
        target.filter(|&t| t > self.now)
    }

    fn req(&mut self, i: u8) -> &mut Req {
        &mut self.reqs[usize::from(i)]
    }

    /// The gate shell's depth report for a step that changed `changed`.
    fn report(&mut self, changed: Changed) {
        for (class, depth, total) in self.gate.depths(changed) {
            self.gauge[class.index()] = depth;
            self.total = total;
        }
    }

    /// The event core shell's effect, applied at once: a rouse wakes every
    /// parked driver.
    fn apply(&mut self, effect: Effect) {
        if matches!(effect, Effect::Arm | Effect::Notify) {
            for driver in &mut self.drivers {
                if let Phase::Parked(_) = driver.phase {
                    driver.phase = Phase::Running;
                }
            }
        }
    }

    /// `EventCore::post_task` of request `i`'s continuation: a shut-down
    /// core hands it back, and it drops unrun.
    fn post(&mut self, i: u8) -> Result<(), String> {
        let (refused, effect) = self.agenda.post(Ev::Continue(i));
        self.apply(effect);
        match refused {
            Some(_) => self.finish(i, Outcome::Shutdown),
            None => Ok(()),
        }
    }

    /// A resolve through the handle's machine, checked against rule 1.
    /// Returns whether it owes a wake.
    fn resolve(&mut self, i: u8, outcome: Outcome) -> Result<bool, String> {
        log(Mark::Resolved(i));
        let req = self.req(i);
        let resolved = req.handle.resolve(outcome);
        match (req.resolved, &resolved) {
            (None, Resolved::Ready) => req.done = true,
            (None, Resolved::Owed) => {}
            (Some(_), Resolved::Lost) => return Ok(false),
            (first, told) => {
                return Err(format!(
                    "1: request {i} resolved {outcome:?} after {first:?}: told {told:?}"
                ))
            }
        }
        req.resolved = Some(outcome);
        Ok(resolved == Resolved::Owed)
    }

    /// `Handoff::finish`, a resolve off a loop's turn (also what an
    /// orphaned `Flight`'s drop does): its wake goes at once.
    fn finish(&mut self, i: u8, outcome: Outcome) -> Result<(), String> {
        if self.resolve(i, outcome)? {
            self.wake(i)?;
        }
        Ok(())
    }

    /// `Wake::wake`: the waiter comes back, its result collectable, and
    /// collects it.
    fn wake(&mut self, i: u8) -> Result<(), String> {
        let req = self.req(i);
        let waiter = req.handle.wake();
        if waiter != i || req.client != Client::Parked {
            return Err(format!("3: request {i}'s wake reached {waiter}"));
        }
        req.done = true;
        self.collect(i)
    }

    /// [`release_after`] with request `i`'s permit around `resolve`, then
    /// the permit's drop: [`GatePolicy::finish`] and the waiter it grants.
    fn resolve_then_release<T>(
        &mut self,
        i: u8,
        resolve: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        LOG.with(|log| log.borrow_mut().clear());
        let resolved = release_after(Permit(i), || resolve(self))?;
        let marks = LOG.with(|log| std::mem::take(&mut *log.borrow_mut()));
        if marks != [Mark::Resolved(i), Mark::Released(i)] {
            return Err(format!("2: request {i} resolved and released as {marks:?}"));
        }
        let req = self.req(i);
        if req.slot != Slot::Held {
            return Err(format!("2: request {i} released a slot it did not hold"));
        }
        req.slot = Slot::Released;
        let (granted, changed) = self.gate.finish();
        self.report(changed);
        if let Some(j) = granted {
            self.admitted(j, None)?;
        }
        Ok(resolved)
    }

    /// `submit_async`'s waiter: how request `i` left admission (`None`:
    /// granted).
    fn admitted(&mut self, i: u8, refused: Option<Outcome>) -> Result<(), String> {
        let req = self.req(i);
        if !matches!(req.stage, Stage::New | Stage::Queued(_)) {
            return Err(format!(
                "the gate handed back request {i}, which it did not hold"
            ));
        }
        req.stage = Stage::Out;
        match refused {
            None => {
                req.stage = Stage::Posted;
                req.slot = Slot::Held;
                self.post(i)
            }
            // The unrun task's guard drops after the refusal, and loses.
            Some(outcome) => {
                self.finish(i, outcome)?;
                self.finish(i, Outcome::Shutdown)
            }
        }
    }

    /// `submit_async`'s continuation of request `i`, run by a turn.
    fn continuation(&mut self, i: u8, prep: Prep) -> Result<(), String> {
        self.req(i).stage = Stage::Out;
        if self.life != Life::Live {
            // The gateway is dropping: its upgrade fails, and the guard
            // resolves the handle before the slot is released.
            return self.resolve_then_release(i, |node| node.finish(i, Outcome::Shutdown));
        }
        let (now, deadline) = (self.now, self.req(i).deadline);
        let decided = catch_unwind(AssertUnwindSafe(|| {
            continued(at(now), deadline.map(at), i, |_| prepare(prep))
        }))
        .map_err(|_| format!("6: request {i}'s continuation panicked its driver"))?;
        let outcome = match decided {
            Continued::Submitted(()) => {
                if deadline.is_some_and(|deadline| deadline <= now) {
                    return Err(format!("3: request {i} entered the engine at its deadline"));
                }
                let req = self.req(i);
                req.stage = Stage::Engine;
                // `EventCore::submit`: the leaf's timer wakes nobody, and
                // neither does the submission, made on its driver's turn.
                let (_, effect) = self.agenda.schedule(at(now + LEAF), Ev::Leaf(i), false);
                self.apply(effect);
                return Ok(());
            }
            Continued::Expired(_) => Outcome::DeadlineExceeded,
            Continued::Failed(_) => Outcome::Generation,
            Continued::Panicked(_) => Outcome::Panicked,
        };
        self.resolve_then_release(i, |node| node.finish(i, outcome))
    }

    /// A driver's wake-ups go out as its turn parks or stops.
    fn send_held(&mut self, d: usize) -> Result<(), String> {
        for i in std::mem::take(&mut self.drivers[d].held) {
            self.wake(i)?;
        }
        Ok(())
    }

    fn collect(&mut self, i: u8) -> Result<(), String> {
        let req = self.req(i);
        let outcome = req.handle.collect();
        if Some(outcome) != req.resolved {
            return Err(format!("1: request {i} collected {outcome:?}"));
        }
        req.client = Client::Collected;
        Ok(())
    }
}

/// What the model's planning does.
fn prepare(prep: Prep) -> Result<(), RuntimeError> {
    match prep {
        Prep::Succeeds => Ok(()),
        Prep::Fails => Err(RuntimeError::Generation {
            reason: "no plan".into(),
        }),
        // `resume_unwind` skips the panic hook: the walk prints nothing.
        Prep::Panics => std::panic::resume_unwind(Box::new("planning panicked")),
    }
}

/// Applies `op` to a copy of `node`; `Err` names the first rule it broke.
/// A panic in a production step is a broken rule too.
fn step(node: &Node, op: Op) -> Result<Node, String> {
    let mut next = node.clone();
    let stepped = catch_unwind(AssertUnwindSafe(|| perform(&mut next, op)));
    stepped.unwrap_or_else(|panic| {
        let message = panic.downcast_ref::<&str>().copied().unwrap_or("");
        let message = panic
            .downcast_ref::<String>()
            .map_or(message, String::as_str);
        Err(format!("a step panicked: {message}"))
    })?;
    check(&next)?;
    Ok(next)
}

fn perform(next: &mut Node, op: Op) -> Result<(), String> {
    let now = next.now;
    match op {
        Op::Submit(class, deadline) => {
            let i = next.reqs.len() as u8;
            next.reqs.push(Req {
                class,
                deadline: deadline.map(|d| now + d),
                stage: Stage::New,
                slot: Slot::Unheld,
                handle: HandleState::Pending,
                done: false,
                client: Client::Holding,
                resolved: None,
            });
            let ((admission, preempted), changed) = next.gate.arrive(class, i, |w| (w, ()));
            next.report(changed);
            if let Some((victim, _)) = preempted {
                next.admitted(victim, Some(Outcome::Overloaded))?;
            }
            match admission {
                Admission::Admitted(i) => next.admitted(i, None)?,
                Admission::Queued(ticket, ()) => {
                    let req = next.req(i);
                    req.stage = Stage::Queued(ticket);
                    if let Some(deadline) = req.deadline {
                        let cancel = Ev::Cancel(i, ticket);
                        let (_, effect) = next.agenda.schedule(at(deadline), cancel, true);
                        next.apply(effect);
                    }
                }
                // Never returned: the waiter, and the guard in it, drop.
                Admission::Shed(_, i) => {
                    let req = next.req(i);
                    req.stage = Stage::Out;
                    req.client = Client::Refused;
                    next.finish(i, Outcome::Shutdown)?;
                }
            }
        }
        Op::Turn(d, prep) => match next.agenda.turn(at(now), &mut Wakes::default()) {
            Turn::Run(Ev::Continue(i), _) => next.continuation(i, prep)?,
            Turn::Run(Ev::Cancel(i, ticket), _) => {
                let class = next.req(i).class;
                let (expired, changed) = next.gate.expire(class, ticket);
                next.report(changed);
                if let Some(j) = expired {
                    next.admitted(j, Some(Outcome::DeadlineExceeded))?;
                }
            }
            // The request's `done`: the wake it owes joins the driver's.
            Turn::Run(Ev::Leaf(i), _) => {
                next.req(i).stage = Stage::Out;
                if next.resolve_then_release(i, |node| node.resolve(i, Outcome::Response))? {
                    next.drivers[d].held.push(i);
                }
            }
            Turn::Park(deadline, _) => {
                next.send_held(d)?;
                let deadline = deadline.map(|deadline| deadline.as_millis() as Tick);
                next.drivers[d].phase = Phase::Parked(deadline);
            }
            Turn::Stop => {
                next.send_held(d)?;
                next.drivers[d].phase = Phase::Stopped;
            }
        },
        Op::Jump => {
            next.now = next
                .jump_target()
                .expect("a jump is offered only when allowed");
            for driver in &mut next.drivers {
                if let Phase::Parked(Some(deadline)) = driver.phase {
                    if deadline <= next.now {
                        driver.phase = Phase::Running;
                    }
                }
            }
        }
        Op::TryWait(i) => next.collect(i)?,
        Op::Wait(i) => {
            if !next.req(i).done && next.req(i).handle.park(i) {
                next.req(i).client = Client::Parked;
            } else {
                next.collect(i)?;
            }
        }
        Op::DropGate => {
            next.life = Life::GateShut;
            let (drained, changed) = next.gate.shutdown();
            next.report(changed);
            for j in drained {
                next.admitted(j, Some(Outcome::Shutdown))?;
            }
        }
        Op::DropCore => {
            next.life = Life::CoreShut;
            let (drained, effect) = next.agenda.shutdown();
            // In flight: each `done` gets `Shutdown`, waking at once.
            for i in 0..next.reqs.len() as u8 {
                if next.req(i).stage == Stage::Engine {
                    next.req(i).stage = Stage::Out;
                    next.resolve_then_release(i, |node| node.finish(i, Outcome::Shutdown))?;
                }
            }
            next.apply(effect);
            // Then the continuations still posted drop unrun.
            for event in drained {
                if let Ev::Continue(i) = event {
                    next.finish(i, Outcome::Shutdown)?;
                }
            }
        }
    }
    Ok(())
}

/// Rules 1, 2, 4 and 5 on the state a step reached.
fn check(node: &Node) -> Result<(), String> {
    let mut queued = [0u64; CLASS_COUNT];
    for req in &node.reqs {
        if let Stage::Queued(_) = req.stage {
            queued[req.class.index()] += 1;
        }
        let unresolved = matches!(req.handle, HandleState::Pending | HandleState::Parked(_));
        if unresolved != req.resolved.is_none() {
            return Err("1: a handle's machine and its resolves disagree".into());
        }
        let gone = matches!(req.stage, Stage::New | Stage::Queued(_) | Stage::Out);
        if req.slot == Slot::Held && gone && node.life != Life::CoreShut {
            return Err("2: a slot held by a request that is not running".into());
        }
    }
    if node.gauge != queued || node.total != queued.iter().sum::<u64>() {
        return Err(format!(
            "4: gauges {:?} / {} for queues {queued:?}",
            node.gauge, node.total
        ));
    }
    let phases = || node.drivers.iter().map(|driver| &driver.phase);
    let (ready, timers, _, _) = node.agenda.contents();
    let idle = ready.is_empty() && timers.is_empty();
    let settled = match node.life {
        Life::CoreShut => phases().all(|phase| *phase == Phase::Stopped),
        Life::Live | Life::GateShut => idle && phases().all(|p| matches!(p, Phase::Parked(_))),
    };
    if !settled {
        return Ok(());
    }
    for (i, req) in node.reqs.iter().enumerate() {
        if req.resolved.is_none() || req.client == Client::Parked {
            return Err(format!(
                "5: request {i} left {:?}, waiter {:?}",
                req.handle, req.client
            ));
        }
        if req.slot == Slot::Held && node.life == Life::Live {
            return Err(format!("5: request {i}'s slot never released"));
        }
    }
    Ok(())
}

/// What one walk saw.
struct Walk {
    /// Sequences of at most `counted` steps, the empty one included.
    sequences: u128,
    counted: usize,
    distinct: usize,
    /// The length after which no new state appeared, if the walk closed.
    closed_at: Option<usize>,
    /// Every request state reached, drivers left out.
    lives: HashSet<Vec<Req>>,
}

/// Walks every sequence of at most `max_len` steps from an empty gateway,
/// breadth first, stepping each distinct state once and stopping early
/// once closed. `Err` is the first (shortest) sequence to break a rule,
/// and the rule.
fn walk(bound: Bound, max_len: usize) -> Result<Walk, (Vec<Op>, String)> {
    let start = Node::new(bound);
    let mut lives = HashSet::from([start.reqs.clone()]);
    let mut index = HashMap::from([(start.key(), 0)]);
    // Per state: the state and step that first reached it, and the states
    // each of its steps reaches.
    let mut first: Vec<(usize, Option<Op>)> = vec![(0, None)];
    let mut steps: Vec<Vec<usize>> = vec![Vec::new()];
    let mut frontier = vec![(0, start)];
    let mut closed_at = None;
    for len in 1..=max_len {
        let mut reached = Vec::new();
        for (id, node) in &frontier {
            for op in node.ops(bound) {
                let next = step(node, op).map_err(|rule| (path(&first, *id, op), rule))?;
                let fresh = index.len();
                let to = *index.entry(next.key()).or_insert(fresh);
                if to == fresh {
                    first.push((*id, Some(op)));
                    steps.push(Vec::new());
                    lives.insert(next.reqs.clone());
                    reached.push((to, next));
                }
                steps[*id].push(to);
            }
        }
        if reached.is_empty() {
            closed_at = Some(len - 1);
            break;
        }
        frontier = reached;
    }
    // Sequences are counted over the recorded steps, one length at a time.
    let counted = closed_at.unwrap_or(max_len);
    let mut ways = vec![0u128; first.len()];
    ways[0] = 1;
    let mut sequences = 1u128;
    for _ in 0..counted {
        let mut after = vec![0u128; first.len()];
        for (from, &count) in ways.iter().enumerate().filter(|(_, &c)| c > 0) {
            for &to in &steps[from] {
                after[to] = after[to].saturating_add(count);
            }
        }
        sequences = after
            .iter()
            .fold(sequences, |sum, &c| sum.saturating_add(c));
        ways = after;
    }
    Ok(Walk {
        sequences,
        counted,
        distinct: first.len(),
        closed_at,
        lives,
    })
}

/// The sequence that first reached state `id`, then `op`.
fn path(first: &[(usize, Option<Op>)], mut id: usize, op: Op) -> Vec<Op> {
    let mut ops = vec![op];
    while let (from, Some(op)) = first[id] {
        ops.push(op);
        id = from;
    }
    ops.reverse();
    ops
}

fn walk_to_fixpoint(bound: Bound) -> Walk {
    let began = Instant::now();
    match walk(bound, usize::MAX) {
        Ok(walk) => {
            println!(
                "{bound:?}: {} sequences of up to {} steps, {} distinct states, \
                 {} request states, closed after {:?} steps, in {:?}",
                match walk.sequences {
                    u128::MAX => "over 2^128".to_string(),
                    sequences => sequences.to_string(),
                },
                walk.counted,
                walk.distinct,
                walk.lives.len(),
                walk.closed_at,
                began.elapsed()
            );
            assert!(
                walk.closed_at.is_some(),
                "{bound:?}: the walk did not close"
            );
            walk
        }
        Err((sequence, rule)) => panic!("{bound:?}: rule {rule} broken by {sequence:?}"),
    }
}

/// One slot, one queue place, Critical and Scavenger, up to `requests`
/// requests with these queue deadlines.
fn bound(drivers: usize, requests: u8, deadlines: &'static [Option<Tick>]) -> Bound {
    Bound {
        drivers,
        requests,
        classes: &[QosClass::Critical, QosClass::Scavenger],
        deadlines,
        limit: 1,
        queue: 1,
    }
}

/// Three requests bring grants, preemptions and shutdowns among them; two
/// with queue deadlines bring a cancel racing a grant at its instant.
#[test]
fn every_sequence_keeps_a_requests_life_with_one_driver() {
    walk_to_fixpoint(bound(1, 3, &[None]));
    walk_to_fixpoint(bound(1, 2, &[None, Some(1), Some(2)]));
}

/// Three requests with queue deadlines, one driver and two: the two
/// reach exactly the request states the one does.
#[test]
#[ignore = "about a minute optimised; CI runs it"]
fn two_drivers_run_every_request_as_one_does() {
    let deadlines = &[None, Some(1)];
    let one = walk_to_fixpoint(bound(1, 3, deadlines));
    let two = walk_to_fixpoint(bound(2, 3, deadlines));
    let only_one: Vec<_> = one.lives.difference(&two.lives).collect();
    let only_two: Vec<_> = two.lives.difference(&one.lives).collect();
    assert!(
        only_one.is_empty() && only_two.is_empty(),
        "request states reached with one driver only: {} ({:?}), with two only: {} ({:?})",
        only_one.len(),
        only_one.first(),
        only_two.len(),
        only_two.first()
    );
}
