//! The timer runs against the heap they replaced: random `schedule`,
//! `turn(now)` and `shutdown` sequences, with most deadlines tied, run
//! through [`Agenda`] and through a reference `BinaryHeap` of
//! `(Reverse(deadline), Reverse(seq))`, which pops the earliest deadline
//! and, among ties, the first scheduled. Every turn must pop the same timer
//! or park to the same deadline, and every schedule must judge alike
//! whether its timer became the earliest (the wake it owes).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::super::{Agenda, Effect, Turn, Wakes};

/// The reference store: each timer's event is its schedule order.
#[derive(Default)]
struct Heap {
    timers: BinaryHeap<(Reverse<Duration>, Reverse<u64>)>,
    seq: u64,
    shutdown: bool,
}

impl Heap {
    fn earliest(&self) -> Option<Duration> {
        self.timers.peek().map(|&(Reverse(deadline), _)| deadline)
    }

    fn pop_due(&mut self, now: Duration) -> Option<u64> {
        let due = self.earliest().is_some_and(|deadline| deadline <= now);
        due.then(|| self.timers.pop().map(|(_, Reverse(seq))| seq))
            .flatten()
    }
}

/// One random sequence of `steps` operations from an empty agenda.
fn replay(seed: u64, steps: usize) -> Result<(), String> {
    let ms = Duration::from_millis;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut agenda = Agenda::new();
    let mut heap = Heap::default();
    let mut now = Duration::ZERO;
    let mut wakes = Wakes::default();
    for step in 0..steps {
        let at = move |what: &str| format!("seed {seed}, step {step}, at {now:?}: {what}");
        match rng.gen_range(0..1_000) {
            // Four instants from now on, so most timers share a deadline
            // with others, scheduled between pops of their run.
            0..=449 => {
                let deadline = now + ms(rng.gen_range(0..4));
                let earliest = heap.earliest().is_none_or(|head| deadline < head);
                let (refused, effect) = agenda.schedule(deadline, heap.seq, true);
                if refused.is_some() != heap.shutdown {
                    return Err(at("only a shut-down agenda refuses a timer"));
                }
                if !heap.shutdown {
                    heap.timers.push((Reverse(deadline), Reverse(heap.seq)));
                    if (effect != Effect::Quiet) != earliest {
                        return Err(at(&format!(
                            "a timer for {deadline:?} woke with {effect:?}; \
                             earliest by the heap: {earliest}"
                        )));
                    }
                }
                heap.seq += 1;
            }
            450..=899 => {
                let want = heap.pop_due(now);
                match agenda.turn(now, &mut wakes) {
                    Turn::Run(seq, due)
                        if Some(seq) == want
                            && due == heap.earliest().is_some_and(|head| head <= now) => {}
                    Turn::Park(deadline, _) if want.is_none() && deadline == heap.earliest() => {}
                    Turn::Stop if heap.shutdown => {}
                    Turn::Run(seq, due) => {
                        return Err(at(&format!("ran {seq} (due {due}), the heap {want:?}")))
                    }
                    Turn::Park(deadline, _) => {
                        return Err(at(&format!(
                            "parked to {deadline:?}, the heap {want:?} / {:?}",
                            heap.earliest()
                        )))
                    }
                    Turn::Stop => return Err(at("stopped before shutdown")),
                }
            }
            900..=998 => now += ms(rng.gen_range(1..3)),
            _ => {
                agenda.shutdown();
                heap.timers.clear();
                heap.shutdown = true;
            }
        }
        if agenda.timers.len != heap.timers.len() {
            return Err(at("the pending counts differ"));
        }
    }
    let pending: Vec<u64> = agenda.timers.iter().map(|(_, &seq)| seq).collect();
    let mut expected = heap.timers.into_sorted_vec();
    expected.reverse();
    let expected: Vec<u64> = expected.into_iter().map(|(_, Reverse(seq))| seq).collect();
    if pending != expected {
        return Err(format!(
            "seed {seed}: pending {pending:?}, the heap {expected:?}"
        ));
    }
    Ok(())
}

#[test]
fn the_runs_pop_in_the_heaps_order() {
    for seed in 0..2_000 {
        if let Err(broken) = replay(seed, 400) {
            panic!("{broken}");
        }
    }
}
