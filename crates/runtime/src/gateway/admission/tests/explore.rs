//! The admission policy's second caller: every operation sequence up to a
//! bound, run through [`GatePolicy`] itself, each step checked against the
//! rules the gate states.
//!
//! The shell applies one policy step per hold of its lock, so the gate's
//! state space is its operation *sequences*, not thread interleavings.
//! From an empty gate, the walk takes every sequence over {arrive × 4
//! classes, finish (while a slot is held), expire each queued ticket,
//! expire a ticket that is not queued, shutdown}, level by level, for
//! in-flight limits 1–2 and queue bounds 2–3. A queued waiter is named by
//! its arrival number. Sequences that reach the same state — the in-flight
//! count, each class queue's length and the accumulators; names are not
//! behaviour — are merged and counted, not walked twice, and a level that
//! reaches no new state closes the walk: every longer sequence stays among
//! the states seen, whose every step has been checked.
//!
//! Checked after every step, in this order:
//! 1. `in_flight <= limit` and `queued <= max_queue`;
//! 2. a freed slot never idles while a waiter exists: a queued waiter
//!    means every slot is held;
//! 3. every ticket leaves exactly once: the waiters a step hands back are
//!    exactly the ones that left the queues, and nobody else moved;
//! 4. arrivals = admitted + shed + expired + drained + still queued,
//!    step by step and so over every sequence;
//! 5. an arrival is admitted, queued, queued by preempting, or shed exactly
//!    as the stated rule says — preemption only when the queue is full, of
//!    the newest waiter of the lowest queued class, when that class is
//!    strictly lower than the arrival's and is Scavenger or the arrival is
//!    Critical;
//! 6. a freed slot goes to the oldest waiter of the class the stated
//!    weighted pick names (largest accumulator plus weight, ties to the
//!    higher class), and the accumulators keep summing to zero.
//!
//! and the queues the step reports changed are exactly those it changed.
//! What the weighted pick promises over time — how many picks a nonempty
//! class can wait — is explored to a fixpoint over every pattern of
//! nonempty queues, the only thing the gate lets the pick see, by
//! [`no_nonempty_class_waits_past_its_bound`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

use super::super::{pick_class, Admission, Changed, GatePolicy};
use crate::request::{QosClass, CLASS_COUNT};

const SCAVENGER: usize = CLASS_COUNT - 1;

#[derive(Clone, Copy, Debug)]
enum Op {
    Arrive(QosClass),
    Finish,
    /// Expire the ticket at this position of this class's queue.
    Expire(QosClass, usize),
    /// Expire a ticket that is not queued.
    ExpireGone,
    Shutdown,
}

/// A gate the walk reached, its waiters named by arrival number.
struct Node {
    policy: GatePolicy<u64>,
    arrivals: u64,
}

/// What decides a gate's future: the in-flight count, the queue lengths
/// and the accumulators.
type Key = (usize, [usize; CLASS_COUNT], [i64; CLASS_COUNT]);

impl Node {
    fn new(limit: usize, max_queue: usize) -> Self {
        Node {
            policy: GatePolicy::new(limit, max_queue),
            arrivals: 0,
        }
    }

    fn copy(&self) -> Self {
        Node {
            policy: self.policy.clone(),
            arrivals: self.arrivals,
        }
    }

    fn key(&self) -> Key {
        let p = &self.policy;
        (p.in_flight, p.waiting.each_ref().map(VecDeque::len), p.wrr)
    }

    fn names(&self) -> [Vec<u64>; CLASS_COUNT] {
        let queues = self.policy.waiting.each_ref();
        queues.map(|queue| queue.iter().map(|&(_, name)| name).collect())
    }

    fn ops(&self) -> Vec<Op> {
        let mut ops: Vec<Op> = QosClass::ALL.into_iter().map(Op::Arrive).collect();
        if self.policy.in_flight > 0 {
            ops.push(Op::Finish);
        }
        for (class, queue) in QosClass::ALL.into_iter().zip(&self.policy.waiting) {
            ops.extend((0..queue.len()).map(|position| Op::Expire(class, position)));
        }
        ops.extend([Op::ExpireGone, Op::Shutdown]);
        ops
    }
}

/// What the stated rule says an arrival gets.
#[derive(Debug, PartialEq)]
enum Arrival {
    Admitted,
    Queued,
    /// Queued, shedding this waiter.
    Preempting(u64),
    Shed,
}

fn stated_arrival(node: &Node, class: QosClass) -> Arrival {
    let p = &node.policy;
    if p.in_flight < p.limit {
        return Arrival::Admitted;
    }
    if p.queued() < p.max_queue {
        return Arrival::Queued;
    }
    let names = node.names();
    match (0..CLASS_COUNT).rev().find(|&i| !names[i].is_empty()) {
        Some(lowest)
            if lowest > class.index() && (lowest == SCAVENGER || class == QosClass::Critical) =>
        {
            Arrival::Preempting(*names[lowest].last().unwrap())
        }
        _ => Arrival::Shed,
    }
}

/// The waiter the stated weighted pick grants a freed slot to.
fn stated_grant(node: &Node) -> Option<u64> {
    let p = &node.policy;
    let mut best: Option<(i64, usize)> = None;
    for (class, queue) in p.waiting.iter().enumerate() {
        let gained = p.wrr[class] + i64::from(QosClass::ALL[class].weight());
        if !queue.is_empty() && best.is_none_or(|(top, _)| gained > top) {
            best = Some((gained, class));
        }
    }
    best.map(|(_, class)| p.waiting[class][0].1)
}

/// Counts of how a step's arrivals left, or did not.
#[derive(Default)]
struct Tally {
    arrived: i64,
    admitted: i64,
    shed: i64,
    expired: i64,
    drained: i64,
}

/// Applies `op` to a copy of `node` and checks the step; `Err` names the
/// first rule it broke.
fn step(node: &Node, op: Op) -> Result<Node, String> {
    let mut next = node.copy();
    let mut tally = Tally::default();
    let mut handed_back = Vec::new();
    let mut decided = Ok(());
    let mut expect = |ok: bool, rule: &str| {
        if !ok && decided.is_ok() {
            decided = Err(rule.to_string());
        }
    };
    let changed = match op {
        Op::Arrive(class) => {
            next.arrivals += 1;
            let name = next.arrivals;
            tally.arrived = 1;
            let ((admission, preempted), changed) =
                next.policy.arrive(class, name, |name| (name, ()));
            let occupancy = |p: &GatePolicy<u64>| (p.in_flight as u64, p.queued() as u64);
            let got = match (admission, preempted) {
                (Admission::Admitted(_), None) => Arrival::Admitted,
                (Admission::Queued(..), None) => Arrival::Queued,
                (Admission::Queued(..), Some((victim, shed))) => {
                    let told = (shed.in_flight, shed.queued);
                    expect(
                        told == occupancy(&next.policy),
                        "5: the occupancy shed with",
                    );
                    handed_back.push(victim);
                    Arrival::Preempting(victim)
                }
                (Admission::Shed(shed, _), None) => {
                    let told = (shed.in_flight, shed.queued);
                    expect(
                        told == occupancy(&node.policy),
                        "5: the occupancy shed with",
                    );
                    Arrival::Shed
                }
                _ => return Err("5: a waiter preempted by an arrival that did not queue".into()),
            };
            match got {
                Arrival::Admitted => tally.admitted = 1,
                Arrival::Shed => tally.shed = 1,
                Arrival::Preempting(_) => tally.shed = 1,
                Arrival::Queued => {}
            }
            expect(got == stated_arrival(node, class), "5: the arrival rule");
            changed
        }
        Op::Finish => {
            let (granted, changed) = next.policy.finish();
            expect(granted == stated_grant(node), "6: the weighted pick");
            tally.admitted = i64::from(granted.is_some());
            handed_back.extend(granted);
            changed
        }
        Op::Expire(class, position) => {
            let (ticket, name) = node.policy.waiting[class.index()][position];
            let (expired, changed) = next.policy.expire(class, ticket);
            expect(expired == Some(name), "3: expire hands back its ticket");
            tally.expired = i64::from(expired.is_some());
            handed_back.extend(expired);
            changed
        }
        Op::ExpireGone => {
            let gone = next.policy.next_ticket;
            let (expired, changed) = next.policy.expire(QosClass::Scavenger, gone);
            expect(expired.is_none(), "3: a ticket not queued leaves no one");
            changed
        }
        Op::Shutdown => {
            let (drained, changed) = next.policy.shutdown();
            expect(
                drained == node.names().concat(),
                "3: shutdown drains in order",
            );
            tally.drained = drained.len() as i64;
            handed_back.extend(drained);
            changed
        }
    };
    check_state(node, &next, &tally, handed_back, changed)?;
    decided.map(|()| next)
}

/// Rules 1–4, the accumulators' sum and the queues reported changed.
fn check_state(
    before: &Node,
    after: &Node,
    tally: &Tally,
    mut handed_back: Vec<u64>,
    changed: Changed,
) -> Result<(), String> {
    let p = &after.policy;
    let queued = p.queued();
    if p.in_flight > p.limit || queued > p.max_queue {
        return Err("1: in_flight <= limit and queued <= max_queue".into());
    }
    if queued > 0 && p.in_flight < p.limit {
        return Err("2: a freed slot idles while a waiter exists".into());
    }
    let (was, is) = (before.names().concat(), after.names().concat());
    let mut left: Vec<u64> = was.iter().copied().filter(|n| !is.contains(n)).collect();
    let joined: Vec<u64> = is.iter().copied().filter(|n| !was.contains(n)).collect();
    let arrived = (after.arrivals > before.arrivals).then_some(after.arrivals);
    left.sort_unstable();
    handed_back.sort_unstable();
    if left != handed_back || joined.iter().any(|&n| Some(n) != arrived) {
        return Err("3: every ticket leaves exactly once".into());
    }
    let still = queued as i64 - before.policy.queued() as i64;
    let out = tally.admitted + tally.shed + tally.expired + tally.drained + still;
    if tally.arrived != out {
        return Err("4: arrivals = admitted + shed + expired + drained + queued".into());
    }
    if p.wrr.iter().sum::<i64>() != 0 {
        return Err("6: the accumulators sum to zero".into());
    }
    let (names_before, names_after) = (before.names(), after.names());
    for class in 0..CLASS_COUNT {
        let moved = names_before[class] != names_after[class];
        if moved != (changed & 1 << class != 0) {
            return Err(format!("changed queues: class {class} misreported"));
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
}

/// Walks every sequence of at most `max_len` steps from an empty gate of
/// `limit` slots and `max_queue` places, breadth first, stepping each
/// distinct state once and stopping early once closed. `Err` is the first
/// (shortest) sequence to break a rule, and the rule.
fn walk(limit: usize, max_queue: usize, max_len: usize) -> Result<Walk, (Vec<Op>, String)> {
    let start = Node::new(limit, max_queue);
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
            for op in node.ops() {
                let next = step(node, op).map_err(|rule| (path(&first, *id, op), rule))?;
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

/// Every gate shape the walk covers: in-flight limit 1–2, queue 2–3.
const SHAPES: [(usize, usize); 4] = [(1, 2), (1, 3), (2, 2), (2, 3)];

fn walk_every_shape(max_len: usize) {
    for (limit, max_queue) in SHAPES {
        let began = Instant::now();
        match walk(limit, max_queue, max_len) {
            Ok(walk) => println!(
                "limit {limit}, queue {max_queue}: {} sequences of up to {} steps, \
                 {} distinct states, closed after {:?} steps, in {:?}",
                match walk.sequences {
                    u128::MAX => "over 2^128".to_string(),
                    sequences => sequences.to_string(),
                },
                walk.counted,
                walk.distinct,
                walk.closed_at,
                began.elapsed()
            ),
            Err((sequence, rule)) => {
                panic!("limit {limit}, queue {max_queue}: rule {rule} broken by {sequence:?}")
            }
        }
    }
}

#[test]
fn every_sequence_of_twelve_steps_keeps_the_gate_rules() {
    walk_every_shape(12);
}

/// The walk until no new state appears: every sequence of any length.
#[test]
#[ignore = "seconds optimised, longer in a debug build; CI runs it"]
fn every_sequence_of_any_length_keeps_the_gate_rules() {
    walk_every_shape(usize::MAX);
}

/// How many picks a class can wait while its queue stays nonempty,
/// whatever the other queues do between picks: explored over the
/// accumulators and that class's wait, under all 15 patterns of nonempty
/// queues, until no new state appears. A steady full backlog from zero
/// accumulators serves every class within 15 picks (the weight sum), but
/// classes emptying and refilling leave accumulators behind, so the
/// bounds are wider for the lighter classes.
#[test]
fn no_nonempty_class_waits_past_its_bound() {
    let patterns: Vec<[bool; CLASS_COUNT]> = (1..1u8 << CLASS_COUNT)
        .map(|mask| std::array::from_fn(|i| mask & (1 << i) != 0))
        .collect();
    let worst = std::array::from_fn(|class| {
        let start = ([0i64; CLASS_COUNT], 0usize);
        let mut seen = HashSet::from([start]);
        let mut stack = vec![start];
        let mut worst = 0;
        while let Some((wrr, waited)) = stack.pop() {
            for nonempty in &patterns {
                let mut next = wrr;
                let picked = pick_class(&mut next, *nonempty).unwrap();
                let waited = if nonempty[class] && picked != class {
                    waited + 1
                } else {
                    0
                };
                worst = worst.max(waited);
                // The sampled test's bound, so a starving pick cannot
                // grow the walk for ever.
                assert!(waited <= 60, "class {class} starved");
                if seen.insert((next, waited)) {
                    stack.push((next, waited));
                }
            }
        }
        println!(
            "class {class}: {worst} picks at most, {} states",
            seen.len()
        );
        worst
    });
    assert_eq!(
        worst,
        [3, 6, 13, 25],
        "most picks a nonempty Critical/Interactive/Bulk/Scavenger queue waits"
    );
}
