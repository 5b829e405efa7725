//! The wake protocol's second caller: every operation sequence up to a
//! bound, run through [`Agenda`] itself and the driver's [`Wakes`], each
//! step checked against the rules DESIGN §15 states.
//!
//! The shell applies a step's reserve and the signal's mirror under the
//! core lock and everything else after it, so another thread's step can
//! land between a step and the rest of its effects. The walk therefore
//! makes applying a pending effect an operation of its own. From an idle
//! core at instant 0, with one or two drivers sharing one parker, it takes
//! every sequence over:
//! - `post` of an event, and `schedule(t)` of a task for an instant `t`
//!   from now to the last one (ties included);
//! - a running driver's `submit` of a request whose leg is due at `t`:
//!   the leg's timer, scheduled without waking anyone;
//! - a driver's `turn`, then, after a turn that parks, the driver's next
//!   shell step (release the slot, send the owed wake-ups, enter its wait);
//! - a poster's pending notify, or a retire's pending release, applied;
//! - a clock jump, allowed only when every live driver is parked and the
//!   core holds no slot: to the earliest parked deadline, or past the last
//!   instant when no driver waits for one (a bystander sleeping there);
//! - a resolve by a running driver, which owes a handle wake-up;
//! - `shutdown`, and a retire once every driver has stopped.
//!
//! Each event is named by the instant it was posted at (a timer's by its
//! deadline) and each wake-up by the instant it was deferred at; a handle
//! wake-up is a real [`Waker`] that logs its instant when woken.
//! Sequences that reach the same state are merged and counted, not walked
//! twice, and a level that reaches no new state closes the walk.
//!
//! Checked after every step, in this order:
//! 1. virtual time never passes a posted, unprocessed event or a due
//!    timer: every queued event was posted at `now`, and no timer's
//!    deadline is behind it;
//! 2. due work always has a driver coming to it: one is running, or one
//!    will read the signal armed — on its way to its wait, or parked with
//!    a notify coming. (Per driver it does not hold with two: a driver can
//!    park to no deadline while the other takes a timer scheduled since,
//!    and is left asleep, as it should be.)
//! 3. every handle wake-up is sent exactly once, no later than the end of
//!    its instant: each held one was deferred at `now`, each sent one is
//!    sent at its own instant, and resolves = sent + held;
//! 4. the slots the core holds equal `armed` plus the releases still
//!    pending, so a quiescent core holds none;
//! 5. each door wakes as stated: a post and a shutdown always, a schedule
//!    only when its timer becomes the earliest (a tie is not earlier), a
//!    submission never, because its driver is running, a turn never; and
//!    a core arms only when it was disarmed;
//! 6. a turn that runs an event says whether a timer is still due at its
//!    instant, and a chain the event releases is held while one is: every
//!    held chain has a due timer behind it, so with rules 1 and 2 it
//!    advances before its instant ends. (The walk counts each run event as
//!    releasing one chain.)

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

use super::super::{Agenda, Effect, Turn, Wakes};

/// An instant, in whole ticks.
type Tick = u8;

fn at(tick: Tick) -> Duration {
    Duration::from_millis(u64::from(tick))
}

thread_local! {
    /// The instants of the handle wake-ups sent during one step.
    static SENT: RefCell<Vec<Tick>> = const { RefCell::new(Vec::new()) };
}

/// A handle wake-up, named by the instant it was deferred at.
struct Note(Tick);

impl Wake for Note {
    fn wake(self: Arc<Self>) {
        SENT.with(|sent| sent.borrow_mut().push(self.0));
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Post,
    Schedule(Tick),
    /// Driver `.0`, running, submits a request whose leg is due at `.1`.
    Submit(usize, Tick),
    Turn(usize),
    /// The driver's next shell step after a turn that parked.
    Next(usize),
    Notify,
    Release,
    Jump,
    Resolve(usize),
    Shutdown,
    Retire,
}

/// What a driver does after a turn that parked, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pending {
    Release,
    SendOwed,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Phase {
    /// Between turns.
    Running,
    /// Turned to park: `pending` left to apply, then its wait.
    Parking {
        deadline: Option<Tick>,
        pending: Vec<Pending>,
    },
    /// Blocked in its wait.
    Parked {
        deadline: Option<Tick>,
    },
    Stopped,
}

struct Driver {
    phase: Phase,
    wakes: Wakes,
    /// The instants of the wake-ups `wakes` holds.
    held: Vec<Tick>,
}

/// The walk's bounds.
#[derive(Clone, Copy, Debug)]
struct Bound {
    drivers: usize,
    posts: u8,
    schedules: u8,
    submits: u8,
    resolves: u8,
    /// The last instant a timer may be scheduled for.
    last: Tick,
}

/// A state the walk reached.
struct Node {
    agenda: Agenda<Tick>,
    drivers: Vec<Driver>,
    now: Tick,
    /// Clock slots the core holds.
    slots: u8,
    /// Notifies and releases posted by other threads, not yet applied.
    notifies: u8,
    releases: u8,
    posts: u8,
    schedules: u8,
    submits: u8,
    resolves: u8,
    sent: u8,
    /// Chains held by the events run while a timer was still due.
    held: u8,
}

/// Everything that decides a state's future.
type Key = (Vec<u8>, Vec<Tick>, Vec<(Phase, bool, Vec<Tick>)>);

impl Drop for Node {
    fn drop(&mut self) {
        // A state dropped by the walk sends no wake-up.
        for driver in &mut self.drivers {
            driver.wakes.waiters.clear();
        }
    }
}

impl Node {
    fn new(drivers: usize) -> Self {
        let driver = || Driver {
            phase: Phase::Running,
            wakes: Wakes::default(),
            held: Vec::new(),
        };
        Node {
            agenda: Agenda::new(),
            drivers: (0..drivers).map(|_| driver()).collect(),
            now: 0,
            slots: 0,
            notifies: 0,
            releases: 0,
            posts: 0,
            schedules: 0,
            submits: 0,
            resolves: 0,
            sent: 0,
            held: 0,
        }
    }

    fn copy(&self) -> Self {
        let drivers = self.drivers.iter().map(|d| Driver {
            phase: d.phase.clone(),
            wakes: Wakes {
                waiters: d.wakes.waiters.clone(),
                since: d.wakes.since,
                owed: d.wakes.owed,
            },
            held: d.held.clone(),
        });
        Node {
            agenda: self.agenda.clone(),
            drivers: drivers.collect(),
            ..*self
        }
    }

    fn key(&self) -> Key {
        let a = &self.agenda;
        let deadlines: Vec<Tick> = a.timers.iter().map(|(_, &event)| event).collect();
        let counters = vec![
            self.now,
            self.slots,
            self.notifies,
            self.releases,
            self.posts,
            self.schedules,
            self.submits,
            self.resolves,
            self.sent,
            self.held,
            u8::from(a.armed),
            u8::from(a.shutdown),
            a.ready.len() as u8,
        ];
        let drivers = self.drivers.iter();
        let drivers = drivers.map(|d| (d.phase.clone(), d.wakes.owed, d.held.clone()));
        (counters, deadlines, drivers.collect())
    }

    fn ops(&self, bound: Bound) -> Vec<Op> {
        let mut ops = Vec::new();
        if self.posts < bound.posts {
            ops.push(Op::Post);
        }
        if self.schedules < bound.schedules {
            ops.extend((self.now..=bound.last).map(Op::Schedule));
        }
        for (d, driver) in self.drivers.iter().enumerate() {
            match driver.phase {
                Phase::Running => {
                    ops.push(Op::Turn(d));
                    if self.submits < bound.submits {
                        ops.extend((self.now..=bound.last).map(|t| Op::Submit(d, t)));
                    }
                    if self.resolves < bound.resolves {
                        ops.push(Op::Resolve(d));
                    }
                }
                Phase::Parking { .. } => ops.push(Op::Next(d)),
                Phase::Parked { .. } | Phase::Stopped => {}
            }
        }
        if self.notifies > 0 {
            ops.push(Op::Notify);
        }
        if self.releases > 0 {
            ops.push(Op::Release);
        }
        if self.jump_target(bound).is_some() {
            ops.push(Op::Jump);
        }
        if !self.agenda.shutdown {
            ops.push(Op::Shutdown);
        }
        if self.drivers.iter().all(|d| d.phase == Phase::Stopped) {
            ops.push(Op::Retire);
        }
        ops
    }

    /// Where a jump would take the clock: only when every live driver is
    /// parked and no slot is held, to the earliest parked deadline or,
    /// with none, to a bystander sleeping past the last instant.
    fn jump_target(&self, bound: Bound) -> Option<Tick> {
        let mut target = bound.last + 1;
        for driver in &self.drivers {
            match driver.phase {
                Phase::Parked { deadline } => target = target.min(deadline.unwrap_or(target)),
                Phase::Stopped => {}
                Phase::Running | Phase::Parking { .. } => return None,
            }
        }
        (self.slots == 0 && target > self.now).then_some(target)
    }

    /// Whether a driver has something to do at `now`.
    fn due(&self) -> bool {
        let a = &self.agenda;
        !a.ready.is_empty() || a.timers.earliest().is_some_and(|t| t <= at(self.now))
    }

    /// The shell's half of `effect` under the lock, and what it leaves for
    /// after the unlock.
    fn hold(&mut self, effect: Effect) {
        match effect {
            Effect::Arm => {
                self.slots += 1;
                self.notifies += 1;
            }
            Effect::Notify => self.notifies += 1,
            Effect::Release => self.releases += 1,
            Effect::Quiet => {}
        }
    }

    /// The shell's deferred release of a clock slot.
    fn release(&mut self) -> Result<(), String> {
        let slots = self.slots.checked_sub(1);
        self.slots = slots.ok_or("4: a slot released that was never reserved")?;
        Ok(())
    }

    /// A driver's wait re-checks its predicate: the armed signal, or its
    /// deadline reached.
    fn recheck(&mut self, d: usize) {
        let (armed, now) = (self.agenda.armed, self.now);
        let driver = &mut self.drivers[d];
        if let Phase::Parked { deadline } | Phase::Parking { deadline, .. } = driver.phase {
            let reached = deadline.is_some_and(|deadline| deadline <= now);
            driver.phase = if armed || reached {
                Phase::Running
            } else {
                Phase::Parked { deadline }
            };
        }
    }
}

/// The wake the stated rules give a door: `None` for none, else whether
/// it arms (the core was disarmed).
fn stated_wake(node: &Node, op: Op) -> Option<bool> {
    let a = &node.agenda;
    let wakes = match op {
        Op::Post | Op::Shutdown => true,
        Op::Schedule(t) => !a.shutdown && a.timers.earliest().is_none_or(|head| at(t) < head),
        _ => false,
    };
    wakes.then_some(!a.armed)
}

/// Applies `op` to a copy of `node` and checks the step; `Err` names the
/// first rule it broke.
fn step(node: &Node, op: Op, bound: Bound) -> Result<Node, String> {
    let mut next = node.copy();
    SENT.with(|sent| sent.borrow_mut().clear());
    let now = next.now;
    let mut woke = None;
    match op {
        Op::Post => {
            next.posts += 1;
            let (refused, effect) = next.agenda.post(now);
            if refused.is_some() != node.agenda.shutdown {
                return Err("post: only a shut-down core refuses".into());
            }
            woke = Some(effect);
            next.hold(effect);
        }
        Op::Schedule(t) => {
            next.schedules += 1;
            let (_, effect) = next.agenda.schedule(at(t), t, true);
            woke = Some(effect);
            next.hold(effect);
        }
        // `EventCore::submit` on driver `d`'s turn: the leg's timer, and
        // no rouse.
        Op::Submit(d, t) => {
            let phase = &node.drivers[d].phase;
            assert_eq!(*phase, Phase::Running, "only a running driver submits");
            next.submits += 1;
            let (_, effect) = next.agenda.schedule(at(t), t, false);
            woke = Some(effect);
            next.hold(effect);
        }
        Op::Turn(d) => {
            let driver = &mut next.drivers[d];
            if driver.wakes.overdue(|| at(now)) {
                driver.wakes.send();
            }
            match next.agenda.turn(at(now), &mut driver.wakes) {
                Turn::Run(event, due) => {
                    if event > now {
                        return Err("1: a turn ran an event before its instant".into());
                    }
                    let pending = next.agenda.timers.iter();
                    if due != pending.map(|(_, &t)| t).any(|t| t <= now) {
                        return Err(format!("6: a turn said a timer is due: {due}"));
                    }
                    next.held = if due { next.held + 1 } else { 0 };
                }
                Turn::Park(deadline, effect) => {
                    let deadline = deadline.map(|d| d.as_millis() as Tick);
                    let mut pending = Vec::new();
                    match effect {
                        Effect::Release => pending.push(Pending::Release),
                        Effect::Quiet => {}
                        Effect::Arm | Effect::Notify => return Err("5: a turn woke".into()),
                    }
                    pending.push(Pending::SendOwed);
                    driver.phase = Phase::Parking { deadline, pending };
                }
                // The driver's wake-ups go out as its `Wakes` drops.
                Turn::Stop => {
                    driver.wakes.send();
                    driver.phase = Phase::Stopped;
                }
            }
        }
        Op::Next(d) => {
            let driver = &mut next.drivers[d];
            let Phase::Parking { pending, .. } = &mut driver.phase else {
                unreachable!("only a parking driver has a next shell step");
            };
            if pending.is_empty() {
                next.recheck(d);
            } else {
                match pending.remove(0) {
                    Pending::Release => next.release()?,
                    Pending::SendOwed => driver.wakes.send_owed(),
                }
            }
        }
        Op::Notify => {
            next.notifies -= 1;
            for d in 0..next.drivers.len() {
                if matches!(next.drivers[d].phase, Phase::Parked { .. }) {
                    next.recheck(d);
                }
            }
        }
        Op::Release => {
            next.releases -= 1;
            next.release()?;
        }
        Op::Jump => {
            next.now = node
                .jump_target(bound)
                .expect("a jump is offered only when allowed");
            for d in 0..next.drivers.len() {
                next.recheck(d);
            }
        }
        Op::Resolve(d) => {
            next.resolves += 1;
            let driver = &mut next.drivers[d];
            driver
                .wakes
                .defer(Waker::from(Arc::new(Note(now))), at(now));
            driver.held.push(now);
        }
        Op::Shutdown => {
            next.held = 0;
            let (_drained, effect) = next.agenda.shutdown();
            woke = Some(effect);
            next.hold(effect);
        }
        Op::Retire => {
            let effect = next.agenda.retire();
            next.hold(effect);
        }
    }
    let stated = stated_wake(node, op);
    let told = match woke {
        Some(Effect::Arm) => Some(true),
        Some(Effect::Notify) => Some(false),
        _ => None,
    };
    if told != stated {
        return Err(format!(
            "5: the door's wake: stated {stated:?}, told {told:?}"
        ));
    }
    let sent = SENT.with(|sent| std::mem::take(&mut *sent.borrow_mut()));
    check_sent(&mut next, &sent)?;
    check_state(&next)?;
    Ok(next)
}

/// Rule 3's sending half: the wake-ups `sent` in this step left the
/// drivers' held lists, each at its own instant.
fn check_sent(node: &mut Node, sent: &[Tick]) -> Result<(), String> {
    if sent.iter().any(|&tick| tick != node.now) {
        return Err("3: a wake-up sent after its instant".into());
    }
    node.sent += sent.len() as u8;
    let mut left = sent.len();
    for driver in &mut node.drivers {
        let gone = driver.held.len() - driver.wakes.waiters.len();
        driver.held.truncate(driver.wakes.waiters.len());
        left = left
            .checked_sub(gone)
            .ok_or("3: a held wake-up vanished unsent")?;
    }
    if left > 0 {
        return Err("3: a wake-up sent twice".into());
    }
    Ok(())
}

/// Rules 1–4 and 6 on the state a step reached.
fn check_state(node: &Node) -> Result<(), String> {
    let a = &node.agenda;
    if node.held > 0 && !a.timers.iter().any(|(_, &t)| t <= node.now) {
        return Err("6: a chain held with no timer due".into());
    }
    if a.ready.iter().any(|&posted| posted != node.now) {
        return Err("1: time passed a posted event".into());
    }
    if a.timers.iter().any(|(_, &deadline)| deadline < node.now) {
        return Err("1: time passed a due timer".into());
    }
    let coming = node.drivers.iter().any(|driver| match driver.phase {
        Phase::Running => true,
        Phase::Parking { .. } => a.armed,
        Phase::Parked { .. } => a.armed && node.notifies > 0,
        Phase::Stopped => false,
    });
    if node.due() && !coming {
        return Err("2: due work with no driver coming to it".into());
    }
    let held: usize = node.drivers.iter().map(|d| d.held.len()).sum();
    if node
        .drivers
        .iter()
        .flat_map(|d| &d.held)
        .any(|&t| t != node.now)
    {
        return Err("3: a wake-up held past its instant".into());
    }
    if usize::from(node.resolves) != usize::from(node.sent) + held {
        return Err("3: resolves = sent + held".into());
    }
    let pending = node.drivers.iter().map(|d| match &d.phase {
        Phase::Parking { pending, .. } => {
            pending.iter().filter(|&&p| p == Pending::Release).count()
        }
        _ => 0,
    });
    let releases = usize::from(node.releases) + pending.sum::<usize>();
    if usize::from(node.slots) != usize::from(a.armed) + releases {
        return Err("4: slots = armed + pending releases".into());
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
}

/// Walks every sequence of at most `max_len` steps from an idle core,
/// breadth first, stepping each distinct state once and stopping early
/// once closed. `Err` is the first (shortest) sequence to break a rule,
/// and the rule.
fn walk(bound: Bound, max_len: usize) -> Result<Walk, (Vec<Op>, String)> {
    let start = Node::new(bound.drivers);
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
                let next = step(node, op, bound).map_err(|rule| (path(&first, *id, op), rule))?;
                let fresh = index.len();
                let to = *index.entry(next.key()).or_insert(fresh);
                if to == fresh {
                    first.push((*id, Some(op)));
                    steps.push(Vec::new());
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

fn walk_to_fixpoint(bound: Bound) {
    let began = Instant::now();
    match walk(bound, usize::MAX) {
        Ok(walk) => {
            println!(
                "{bound:?}: {} sequences of up to {} steps, {} distinct states, \
                 closed after {:?} steps, in {:?}",
                match walk.sequences {
                    u128::MAX => "over 2^128".to_string(),
                    sequences => sequences.to_string(),
                },
                walk.counted,
                walk.distinct,
                walk.closed_at,
                began.elapsed()
            );
            assert!(
                walk.closed_at.is_some(),
                "{bound:?}: the walk did not close"
            );
        }
        Err((sequence, rule)) => panic!("{bound:?}: rule {rule} broken by {sequence:?}"),
    }
}

#[test]
fn every_sequence_keeps_the_wake_rules_with_one_driver() {
    walk_to_fixpoint(Bound {
        drivers: 1,
        posts: 2,
        schedules: 3,
        submits: 1,
        resolves: 2,
        last: 2,
    });
}

#[test]
fn every_sequence_keeps_the_wake_rules_with_two_drivers() {
    walk_to_fixpoint(Bound {
        drivers: 2,
        posts: 2,
        schedules: 2,
        submits: 1,
        resolves: 1,
        last: 1,
    });
}

/// More of every operation, and a later last instant.
#[test]
#[ignore = "tens of seconds optimised; CI runs it"]
fn every_sequence_keeps_the_wake_rules_at_the_larger_bound() {
    // A second submission multiplies two drivers' states by seven (9.2
    // million, three minutes): one driver takes two, two drivers one.
    for (drivers, submits) in [(1, 2), (2, 1)] {
        walk_to_fixpoint(Bound {
            drivers,
            posts: 3,
            schedules: 3,
            submits,
            resolves: 2,
            last: 2,
        });
    }
}
