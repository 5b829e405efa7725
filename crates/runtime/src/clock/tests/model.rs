//! The wait protocol's first caller that is not the clock: a scheduler that
//! runs small thread programs over the *production* transitions
//! ([`VcState`]'s and [`Parker::post`]) through every schedule, where
//! [`VirtualClock`](super::super::VirtualClock) has a mutex and condvars.
//!
//! A step is what one thread does in one hold of the clock's lock (or one
//! access to a `ready` flag, which is outside it). A thread a wait
//! transition parked can run again only once a later transition returned
//! its parker, or when the scheduler hands it one of its spurious
//! wake-ups. Depth-first over every choice of next thread, with states
//! seen before not entered twice: the checks below depend on the state
//! alone, and the schedules through a state are counted, not re-walked.
//!
//! Checked after every transition: `now` never goes back, and moves only
//! by `advance` or while `worker_sleepers + parked >= workers`. After
//! every step: the counters say what the threads are doing (`workers` the
//! registered ones, `worker_sleepers` and `parked` the registered ones in
//! a wait with and without a deadline or marked passive, each parker's
//! count the threads parked on it), and no jump is pending. Whenever no
//! thread can run without a spurious wake-up: all have finished — none is
//! parked with its deadline reached or its flag set (a lost wake-up), none
//! at all (the programs below cannot deadlock by themselves). At the end:
//! every counter is zero and nobody is registered as waiting. A deadline
//! wait nobody cut short ends at exactly its deadline, unless a program
//! `advance`s time.

use super::super::{Parker, VcState, Wait};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// The two parkers threads share (and the flags their waiters watch); a
/// `Sleep` parks on its thread's own, as `Clock::sleep` does.
const A: usize = 0;
const B: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `reserve_worker` + `adopt_worker`.
    Enter,
    /// `disown_worker` + `release_worker`.
    Exit,
    /// `Clock::sleep`, milliseconds.
    Sleep(u64),
    /// `sleep_until_or` on a shared parker until its flag is set or, with
    /// `Some`, until that instant.
    Wait(usize, Option<u64>),
    /// Set the flag, then `notify_sleepers`.
    Post(usize),
    Passive,
    Active,
    /// `VirtualClock::advance`, milliseconds.
    Advance(u64),
    /// A wait outside the clock (the gateway's `Handoff::wait`): passive
    /// if a worker, until a `Hand` sets the one foreign flag.
    Await,
    /// The wake of that wait: `go_active` for a passive waiter, then the
    /// flag.
    Hand,
}
use Op::*;

/// The thread programs a scenario draws from, at most four operations
/// each. None waits without a deadline *and* posts, so no combination of
/// them can wait in a circle; the explorer takes every combination in
/// which each flag waited on without a deadline is posted by another
/// thread.
const POOL: &[&[Op]] = &[
    &[Sleep(5)],
    &[Sleep(9)],
    &[Enter, Sleep(5), Exit],
    &[Enter, Sleep(3), Sleep(4), Exit],
    &[Wait(A, None)],
    &[Enter, Wait(A, None), Exit],
    &[Enter, Wait(A, Some(5)), Exit],
    &[Enter, Wait(B, Some(9)), Exit],
    &[Wait(B, Some(7)), Sleep(2)],
    &[Enter, Wait(A, Some(9)), Wait(A, None), Exit],
    &[Post(A)],
    &[Post(B), Post(A)],
    &[Enter, Post(A), Exit],
    &[Enter, Sleep(5), Post(A), Exit],
    &[Enter, Passive, Active, Exit],
    &[Advance(5)],
    &[Advance(4), Advance(4)],
    &[Enter, Await, Exit],
    &[Enter, Hand, Sleep(5), Exit],
];

/// A way to break the shell's discipline around unchanged transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    /// A waiter counts itself onto its parker in a lock hold of its own,
    /// after the one that checked its predicate.
    CountAfterCheck,
    /// A poster notifies first and sets the flag afterwards.
    PostBeforeFlag,
    /// A poster decides whether to notify from a count it read earlier,
    /// before it set the flag.
    StaleCount,
    /// A `Hand` only sets the flag, and the woken waiter clears its own
    /// passive mark once it runs.
    WaiterClearsOwnMark,
}

/// The steps a `Post` is made of, in the shell's order or a mutant's.
#[derive(Clone, Copy, Debug)]
enum PostStep {
    SetsTheFlag,
    Posts,
    ReadsTheCount,
    PostsAsRead,
}

/// What a thread in a wait carries between steps: [`Wait`] without the
/// borrow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rec {
    parker: usize,
    deadline: Option<Duration>,
    token: u64,
    /// `now` when the wait began.
    began: Duration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Before the first step of the operation at `pc`.
    Running,
    /// In `Post`, that many steps done, with the count an early read saw.
    Posting(u8, bool),
    /// ([`Mutant::CountAfterCheck`]) decided to park, not yet counted.
    Uncounted(Rec),
    /// In an `Await`, until the foreign flag is set.
    Awaiting,
    Parked {
        rec: Rec,
        woken: bool,
    },
}

#[derive(Clone, Debug)]
struct Thread {
    program: &'static [Op],
    pc: usize,
    is_worker: bool,
    passive: bool,
    /// Spurious wake-ups the scheduler may still hand it.
    spurious: u8,
    phase: Phase,
}

impl Thread {
    fn done(&self) -> bool {
        self.pc == self.program.len()
    }

    fn next_op(&mut self) {
        self.pc += 1;
        self.phase = Phase::Running;
    }

    /// The wait it is in, if any.
    fn wait(&self) -> Option<Rec> {
        match self.phase {
            Phase::Uncounted(rec) | Phase::Parked { rec, .. } => Some(rec),
            _ => None,
        }
    }
}

struct World {
    state: VcState,
    /// `A`, `B`, then each thread's own.
    parkers: Vec<Arc<Parker>>,
    flags: [bool; 2],
    /// The foreign flag a `Hand` sets.
    handed: bool,
    threads: Vec<Thread>,
    /// No program `advance`s: waits end at exactly their deadlines.
    exact: bool,
}

fn ms(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// Runs one transition: notes which parkers it returned, checks what it
/// did to `now`, and wakes the threads parked on those parkers.
macro_rules! transition {
    ($world:ident, $call:expr, by_advance: $by_advance:expr) => {{
        let before = $world.state.now;
        let returned: Vec<usize> = $call
            .map(|woken| {
                let at = $world.parkers.iter().position(|p| std::ptr::eq(&**p, woken));
                at.expect("a parker of this world")
            })
            .collect();
        $world.after_transition(before, &returned, $by_advance)?;
    }};
    ($world:ident, $call:expr) => {
        transition!($world, $call, by_advance: false)
    };
}

impl World {
    fn new(programs: &[&'static [Op]]) -> World {
        World {
            state: VcState::default(),
            parkers: (0..2 + programs.len()).map(|_| Arc::default()).collect(),
            flags: [false; 2],
            handed: false,
            threads: programs
                .iter()
                .map(|&program| Thread {
                    program,
                    pc: 0,
                    is_worker: false,
                    passive: false,
                    spurious: 1,
                    phase: Phase::Running,
                })
                .collect(),
            exact: !programs
                .iter()
                .any(|p| p.iter().any(|op| matches!(op, Advance(_)))),
        }
    }

    /// A copy that shares nothing with `self`: the parkers' counts are
    /// state too.
    fn fork(&self) -> World {
        let parkers: Vec<Arc<Parker>> = (self.parkers.iter())
            .map(|parker| {
                let copy = Parker::default();
                copy.parked.store(parker.parked.load(Relaxed), Relaxed);
                Arc::new(copy)
            })
            .collect();
        let sleepers = (self.state.sleepers.iter())
            .map(|(token, deadline, parker)| {
                let at = self.parkers.iter().position(|p| Arc::ptr_eq(p, parker));
                let parker = Arc::clone(&parkers[at.expect("a parker of this world")]);
                (*token, *deadline, parker)
            })
            .collect();
        World {
            // The other fields are plain counters.
            state: VcState {
                sleepers,
                ..self.state
            },
            parkers,
            flags: self.flags,
            handed: self.handed,
            threads: self.threads.clone(),
            exact: self.exact,
        }
    }

    /// Everything the future depends on (tokens name entries and nothing
    /// else; `spurious` is part of it, so the walk is finite).
    fn key(&self) -> Vec<u64> {
        let state = &self.state;
        let mut key = vec![
            state.now.as_millis() as u64,
            state.workers as u64,
            state.parked as u64,
            state.worker_sleepers as u64,
            u64::from(self.flags[A]) | u64::from(self.flags[B]) << 1 | u64::from(self.handed) << 2,
        ];
        key.extend(self.parkers.iter().map(|p| p.parked.load(Relaxed) as u64));
        for thread in &self.threads {
            let flags = u64::from(thread.is_worker)
                | u64::from(thread.passive) << 1
                | u64::from(thread.spurious) << 2;
            key.extend([thread.pc as u64, flags]);
            let wait = |rec: Rec| {
                [
                    rec.parker as u64,
                    rec.deadline.map_or(u64::MAX, |d| d.as_millis() as u64),
                ]
            };
            match thread.phase {
                Phase::Running => key.push(0),
                Phase::Posting(steps, saw) => key.extend([1, u64::from(steps), u64::from(saw)]),
                Phase::Uncounted(rec) => {
                    key.push(2);
                    key.extend(wait(rec));
                }
                Phase::Parked { rec, woken } => {
                    key.push(3 + u64::from(woken));
                    key.extend(wait(rec));
                }
                Phase::Awaiting => key.push(5),
            }
        }
        key
    }

    fn after_transition(
        &mut self,
        before: Duration,
        returned: &[usize],
        by_advance: bool,
    ) -> Result<(), String> {
        let state = &self.state;
        if state.now < before {
            return Err(format!("now went back from {before:?} to {:?}", state.now));
        }
        if state.now > before && !by_advance && state.worker_sleepers + state.parked < state.workers
        {
            return Err(format!(
                "now jumped to {:?} under a runnable worker",
                state.now
            ));
        }
        let woken = |t: &Thread| t.is_worker && t.phase == Phase::Awaiting && self.handed;
        if let Some(t) =
            (self.threads.iter().position(woken)).filter(|_| state.now > before && !by_advance)
        {
            return Err(format!(
                "time moved past a woken waiter: now {:?} before T{t} ran",
                state.now
            ));
        }
        for thread in &mut self.threads {
            if let Phase::Parked { rec, woken } = &mut thread.phase {
                *woken |= returned.contains(&rec.parker);
            }
        }
        Ok(())
    }

    /// The threads the scheduler may run next.
    fn enabled(&self) -> Vec<usize> {
        let can_run = |thread: &Thread| match thread.phase {
            Phase::Parked { woken, .. } => woken || thread.spurious > 0,
            Phase::Awaiting => self.handed,
            _ => !thread.done(),
        };
        (0..self.threads.len())
            .filter(|&t| can_run(&self.threads[t]))
            .collect()
    }

    /// One step of thread `t`; the label says what it did.
    fn step(&mut self, t: usize, mutant: Option<Mutant>) -> Result<String, String> {
        let mut thread = self.threads[t].clone();
        let op = thread.program[thread.pc];
        let did = match (thread.phase, op) {
            (Phase::Parked { rec, woken }, _) => {
                thread.spurious -= u8::from(!woken);
                let what = if woken { "wakes" } else { "wakes spuriously" };
                self.park_or_end(t, &mut thread, rec, true, mutant)
                    .map(|then| format!("{what} and {then}"))?
            }
            (Phase::Uncounted(rec), _) => {
                self.parkers[rec.parker].parked.fetch_add(1, Relaxed);
                thread.phase = Phase::Parked { rec, woken: false };
                "counts itself parked".to_string()
            }
            (Phase::Awaiting, _) => {
                // Still passive only if the hand left the mark to it.
                if thread.passive {
                    transition!(self, self.state.go_active());
                    thread.passive = false;
                }
                thread.next_op();
                "wakes".to_string()
            }
            (_, Await) if self.handed => {
                thread.next_op();
                "finds it handed".to_string()
            }
            (_, Await) => {
                // Passive under the handoff's lock, before it parks.
                if thread.is_worker {
                    transition!(self, self.state.go_passive());
                    thread.passive = true;
                }
                thread.phase = Phase::Awaiting;
                "parks".to_string()
            }
            (_, Hand) => {
                for at in 0..self.threads.len() {
                    let waiter = &self.threads[at];
                    let owed = waiter.phase == Phase::Awaiting && waiter.passive;
                    if owed && mutant != Some(Mutant::WaiterClearsOwnMark) {
                        transition!(self, self.state.go_active());
                        self.threads[at].passive = false;
                    }
                }
                self.handed = true;
                thread.next_op();
                "hands over".to_string()
            }
            (_, Sleep(_) | Wait(..)) => {
                let (parker, deadline) = match op {
                    Sleep(by) => (2 + t, Some(self.state.now + ms(by))),
                    Wait(parker, deadline) => (parker, deadline.map(ms)),
                    _ => unreachable!(),
                };
                let on = Arc::clone(&self.parkers[parker]);
                let mut wait = Wait {
                    parker: &on,
                    deadline,
                    is_worker: thread.is_worker,
                    token: 0,
                    parked: false,
                };
                let began = self.state.now;
                transition!(self, self.state.begin_wait(&mut wait));
                let rec = Rec {
                    parker,
                    deadline,
                    token: wait.token,
                    began,
                };
                self.park_or_end(t, &mut thread, rec, false, mutant)
                    .map(|then| format!("begins its wait and {then}"))?
            }
            (_, Post(flag)) => {
                let (steps, mut saw) = match thread.phase {
                    Phase::Posting(steps, saw) => (usize::from(steps), saw),
                    _ => (0, false),
                };
                // The shell's order is flag, then post; each mutant's is
                // its own.
                let order: &[PostStep] = match mutant {
                    Some(Mutant::PostBeforeFlag) => &[PostStep::Posts, PostStep::SetsTheFlag],
                    Some(Mutant::StaleCount) => &[
                        PostStep::ReadsTheCount,
                        PostStep::SetsTheFlag,
                        PostStep::PostsAsRead,
                    ],
                    _ => &[PostStep::SetsTheFlag, PostStep::Posts],
                };
                let on = &self.parkers[flag];
                match order[steps] {
                    PostStep::SetsTheFlag => self.flags[flag] = true,
                    PostStep::ReadsTheCount => saw = on.post().is_some(),
                    PostStep::Posts => transition!(self, on.post().into_iter()),
                    PostStep::PostsAsRead => {
                        transition!(self, on.post().filter(|_| saw).into_iter());
                    }
                }
                thread.phase = Phase::Posting(steps as u8 + 1, saw);
                if steps + 1 == order.len() {
                    thread.next_op();
                }
                format!("{:?}", order[steps])
            }
            (_, one_step) => {
                match one_step {
                    Enter => transition!(self, self.state.reserve()),
                    Exit => transition!(self, self.state.release()),
                    Passive => transition!(self, self.state.go_passive()),
                    Active => transition!(self, self.state.go_active()),
                    Advance(by) => transition!(self, self.state.advance(ms(by)), by_advance: true),
                    Sleep(_) | Wait(..) | Post(_) | Await | Hand => {
                        unreachable!("matched above")
                    }
                }
                match one_step {
                    Enter | Exit => thread.is_worker = one_step == Enter,
                    Passive | Active => thread.passive = one_step == Passive,
                    _ => {}
                }
                thread.next_op();
                "does".to_string()
            }
        };
        self.threads[t] = thread;
        Ok(format!("T{t} {op:?} {did}"))
    }

    /// The rest of a wait's lock hold, whether it just began or is back
    /// from its parker: park (again), or end the wait.
    fn park_or_end(
        &mut self,
        t: usize,
        thread: &mut Thread,
        rec: Rec,
        parked: bool,
        mutant: Option<Mutant>,
    ) -> Result<&'static str, String> {
        let ready = matches!(thread.program[thread.pc], Wait(flag, _) if self.flags[flag]);
        let on = Arc::clone(&self.parkers[rec.parker]);
        let mut wait = Wait {
            parker: &on,
            deadline: rec.deadline,
            is_worker: thread.is_worker,
            token: rec.token,
            parked,
        };
        if self.state.parks(&mut wait, ready) {
            thread.phase = Phase::Parked { rec, woken: false };
            if mutant == Some(Mutant::CountAfterCheck) {
                on.parked.fetch_sub(1, Relaxed);
                thread.phase = Phase::Uncounted(rec);
                return Ok("decides to park");
            }
            return Ok("parks");
        }
        // Read before `end_wait`: a bystander leaving may itself let time
        // move on.
        let now = self.state.now;
        let due = rec.deadline.map(|deadline| deadline.max(rec.began));
        if self.exact && !ready && due != Some(now) {
            return Err(format!("T{t}'s wait to {due:?} ended at {now:?}"));
        }
        transition!(self, self.state.end_wait(&wait));
        thread.next_op();
        Ok("ends its wait")
    }

    /// What must hold between any two steps.
    fn check(&self) -> Result<(), String> {
        let state = &self.state;
        let count =
            |which: &dyn Fn(&Thread) -> bool| self.threads.iter().filter(|t| which(t)).count();
        let waits = |deadline: bool| {
            count(&|t| {
                t.is_worker
                    && t.wait()
                        .is_some_and(|rec| rec.deadline.is_some() == deadline)
            })
        };
        let told = (
            count(&|t| t.is_worker),
            waits(true),
            waits(false) + count(&|t| t.passive),
            count(&|t| t.wait().is_some_and(|rec| rec.deadline.is_some())),
        );
        let counted = (
            state.workers,
            state.worker_sleepers,
            state.parked,
            state.sleepers.len(),
        );
        if told != counted {
            return Err(format!(
                "(workers, worker_sleepers, parked, sleepers) are {counted:?}, the threads say {told:?}"
            ));
        }
        for (at, parker) in self.parkers.iter().enumerate() {
            let on_it =
                count(&|t| matches!(t.phase, Phase::Parked { rec, .. } if rec.parker == at));
            if parker.parked.load(Relaxed) != on_it {
                return Err(format!(
                    "parker {at} counts {parker:?}, {on_it} are parked on it"
                ));
            }
        }
        let earliest = state.sleepers.iter().map(|(_, due, _)| *due).min();
        let blocked = state.worker_sleepers + state.parked >= state.workers;
        if blocked && earliest.is_some_and(|due| due > state.now) {
            return Err(format!(
                "a jump to {earliest:?} is pending at {:?}",
                state.now
            ));
        }
        // Nobody can run unless the scheduler wakes it for nothing: then
        // everybody must have finished.
        let asleep = |t: &Thread| match t.phase {
            Phase::Parked { woken, .. } => !woken,
            Phase::Awaiting => !self.handed,
            _ => false,
        };
        if self.threads.iter().all(|t| t.done() || asleep(t)) {
            for (t, thread) in self.threads.iter().enumerate() {
                if thread.phase == Phase::Awaiting {
                    return Err(format!(
                        "deadlock: T{t} awaits a hand nobody is left to give"
                    ));
                }
                let Some(rec) = thread.wait() else { continue };
                let flag = matches!(thread.program[thread.pc], Wait(flag, _) if self.flags[flag]);
                let due = rec.deadline.is_some_and(|deadline| deadline <= state.now);
                return Err(match (flag, due) {
                    (true, _) => format!("lost wake-up: T{t} is parked and its flag is set"),
                    (_, true) => format!("lost wake-up: T{t} is parked past its deadline"),
                    _ => format!("deadlock: T{t} is parked and nobody is left to wake it"),
                });
            }
            let parked: usize = self.parkers.iter().map(|p| p.parked.load(Relaxed)).sum();
            let left = (
                state.workers,
                state.parked,
                state.worker_sleepers,
                state.sleepers.len(),
                parked,
            );
            if left != (0, 0, 0, 0, 0) {
                return Err(format!("ended with {left:?} still counted"));
            }
        }
        Ok(())
    }
}

/// What one exploration visited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Visited {
    scenarios: u64,
    states: u64,
    schedules: u128,
}

struct Explorer {
    mutant: Option<Mutant>,
    /// Schedules from a state to the end, per state already walked.
    seen: HashMap<Vec<u64>, u128>,
    /// The steps that led to the state being walked.
    path: Vec<String>,
}

impl Explorer {
    fn walk(&mut self, world: &World) -> Result<u128, String> {
        let key = world.key();
        if let Some(&schedules) = self.seen.get(&key) {
            return Ok(schedules);
        }
        world.check()?;
        let mut schedules = 0;
        for t in world.enabled() {
            let mut next = world.fork();
            let step = next.step(t, self.mutant);
            self.path
                .push(step.clone().unwrap_or_else(|_| format!("T{t} steps")));
            step?;
            schedules += self.walk(&next)?;
            self.path.pop();
        }
        let schedules = schedules.max(1);
        self.seen.insert(key, schedules);
        Ok(schedules)
    }
}

/// Every combination, with repetition, of one to `threads` programs of
/// [`POOL`] in which each flag waited on without a deadline is posted by
/// another thread.
fn scenarios(threads: usize) -> Vec<Vec<&'static [Op]>> {
    fn admissible(programs: &[&[Op]]) -> bool {
        let done_by_another = |wake: Op, but: usize| {
            let others = programs.iter().enumerate().filter(|&(at, _)| at != but);
            others.flat_map(|(_, p)| p.iter()).any(|op| *op == wake)
        };
        programs.iter().enumerate().all(|(at, program)| {
            let mut waits = program.iter().filter_map(|op| match op {
                Wait(flag, None) => Some(Post(*flag)),
                Await => Some(Hand),
                _ => None,
            });
            waits.all(|wake| done_by_another(wake, at))
        })
    }
    let mut all = Vec::new();
    let mut grown: Vec<(usize, Vec<&'static [Op]>)> = vec![(0, Vec::new())];
    for _ in 0..threads {
        let extend = |(from, chosen): &(usize, Vec<&'static [Op]>)| {
            let chosen = chosen.clone();
            (*from..POOL.len()).map(move |at| (at, [&chosen[..], &[POOL[at]]].concat()))
        };
        grown = grown.iter().flat_map(extend).collect();
        all.extend(grown.iter().map(|(_, chosen)| chosen.clone()));
    }
    all.retain(|programs| admissible(programs));
    all
}

/// Every schedule of every scenario of up to `threads` threads; the first
/// violation, with the schedule that led to it.
fn explore(threads: usize, mutant: Option<Mutant>) -> Result<Visited, String> {
    let mut visited = Visited::default();
    for programs in scenarios(threads) {
        let mut explorer = Explorer {
            mutant,
            seen: HashMap::new(),
            path: Vec::new(),
        };
        let schedules = explorer.walk(&World::new(&programs)).map_err(|violation| {
            let schedule = explorer.path.join("; ");
            format!("{violation}\n  programs: {programs:?}\n  schedule: {schedule}")
        })?;
        visited.scenarios += 1;
        visited.states += explorer.seen.len() as u64;
        visited.schedules += schedules;
    }
    Ok(visited)
}

#[test]
fn every_schedule_of_three_threads_keeps_the_protocol() {
    let start = std::time::Instant::now();
    let visited = explore(3, None).unwrap_or_else(|violation| panic!("{violation}"));
    println!("3 x 4: {visited:?} in {:?}", start.elapsed());
    assert!(visited.schedules > visited.states as u128);
}

/// About a minute in release: CI runs it, `cargo test` does not.
#[test]
#[ignore = "the 4 x 4 bound takes minutes unoptimised"]
fn every_schedule_of_four_threads_keeps_the_protocol() {
    let start = std::time::Instant::now();
    let visited = explore(4, None).unwrap_or_else(|violation| panic!("{violation}"));
    println!("4 x 4: {visited:?} in {:?}", start.elapsed());
}

/// Each way of breaking the shell's discipline loses a wake-up, or lets
/// time pass a woken waiter, on some schedule, and the explorer names the
/// first it meets.
#[test]
fn the_explorer_finds_each_seeded_mutant() {
    for (mutant, breaks) in [
        (Mutant::CountAfterCheck, "lost wake-up"),
        (Mutant::PostBeforeFlag, "lost wake-up"),
        (Mutant::StaleCount, "lost wake-up"),
        (
            Mutant::WaiterClearsOwnMark,
            "time moved past a woken waiter",
        ),
    ] {
        let found = explore(2, Some(mutant)).expect_err("the mutant breaks a rule");
        println!("{mutant:?}: {found}");
        assert!(found.starts_with(breaks), "{mutant:?}: {found}");
        assert!(found.contains("schedule: T"), "{mutant:?}: {found}");
    }
}
