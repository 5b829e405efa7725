//! Seeded fault injection for simulated devices.
//!
//! The paper's premise is that edge resources are *unreliable and
//! dynamic*: devices crash and recover, network paths degrade, and
//! (Section VII) compromised devices may return fabricated results. A
//! [`FaultPlan`] captures one concrete misfortune schedule — a list of
//! [`FaultEvent`]s keyed on clock time — and a [`FaultyProvider`] applies
//! it on top of any [`SimulatedProvider`]. Plans are either hand-written
//! (`FaultPlan::new`) or drawn reproducibly from a seed
//! (`FaultPlan::seeded`): the same seed always produces the same schedule,
//! so a failing test names its misfortune exactly.
//!
//! On a shared [`VirtualClock`](crate::VirtualClock), fault windows are hit
//! deterministically: clock time only moves when the simulation moves it.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::clock::Clock;
use crate::device::{Provider, SimulatedProvider};
use crate::message::{Invocation, InvokeError};
use crate::telemetry::{EventKind, Scope, Telemetry};

/// What goes wrong (or right again) at a scheduled instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The device crashes: invocations fail instantly with
    /// [`InvokeError::DeviceUnavailable`].
    Crash,
    /// The device recovers from a crash.
    Recover,
    /// Every invocation pays this much extra latency (a degraded link).
    AddLatency(Duration),
    /// The link heals: added latency is cleared.
    ClearLatency,
    /// The device turns byzantine: successful invocations return this
    /// payload instead of the true result.
    Byzantine(Vec<u8>),
    /// The device stops lying.
    Honest,
}

/// One scheduled fault transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Clock time at which the transition takes effect.
    pub at: Duration,
    /// The transition.
    pub kind: FaultKind,
}

/// Tunables for [`FaultPlan::seeded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultProfile {
    /// Mean healthy time between fault onsets.
    pub mean_time_between_faults: Duration,
    /// Mean duration of one fault window.
    pub mean_fault_duration: Duration,
    /// Relative weight of crash faults.
    pub crash_weight: u32,
    /// Relative weight of latency-spike faults.
    pub latency_weight: u32,
    /// Relative weight of byzantine faults.
    pub byzantine_weight: u32,
    /// Extra latency applied during a latency spike.
    pub latency_spike: Duration,
    /// Payload returned while byzantine.
    pub byzantine_payload: Vec<u8>,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            mean_time_between_faults: Duration::from_millis(200),
            mean_fault_duration: Duration::from_millis(50),
            crash_weight: 2,
            latency_weight: 1,
            byzantine_weight: 1,
            latency_spike: Duration::from_millis(30),
            byzantine_payload: vec![0xBD],
        }
    }
}

/// A time-ordered schedule of fault transitions for one device.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates a plan from explicit events (sorted by time; order among
    /// same-instant events is preserved).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// A plan with no faults.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draws a reproducible schedule of non-overlapping fault windows over
    /// `[0, horizon)`: healthy gaps and fault durations are uniform around
    /// the profile's means, fault kinds are picked by weight. The same
    /// `(seed, horizon, profile)` always yields the same plan; with every
    /// weight zero it is [`FaultPlan::none`].
    #[must_use]
    pub fn seeded(seed: u64, horizon: Duration, profile: &FaultProfile) -> Self {
        let weights = [
            profile.crash_weight,
            profile.latency_weight,
            profile.byzantine_weight,
        ];
        if weights == [0; 3] {
            return FaultPlan::none();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Uniform in [0.5, 1.5) of `mean`.
        fn around(rng: &mut ChaCha8Rng, mean: Duration) -> Duration {
            mean.mul_f64(rng.gen_range(0.5..1.5))
        }

        let mut events = Vec::new();
        let mut t = around(&mut rng, profile.mean_time_between_faults);
        while t < horizon {
            let (onset, clear) = match pick_weighted(&mut rng, &weights) {
                0 => (FaultKind::Crash, FaultKind::Recover),
                1 => (
                    FaultKind::AddLatency(profile.latency_spike),
                    FaultKind::ClearLatency,
                ),
                _ => (
                    FaultKind::Byzantine(profile.byzantine_payload.clone()),
                    FaultKind::Honest,
                ),
            };
            let duration = around(&mut rng, profile.mean_fault_duration);
            events.push(FaultEvent { at: t, kind: onset });
            events.push(FaultEvent {
                at: t + duration,
                kind: clear,
            });
            t += duration + around(&mut rng, profile.mean_time_between_faults);
        }
        FaultPlan { events }
    }

    /// The schedule, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Picks an index with probability proportional to its weight; at least one
/// weight is positive. The weights are summed in `u64`, so no profile
/// overflows; a total that fits in `u32` is drawn as a `u32`, the draw every
/// such profile has always made, so seeded plans stay what they were.
fn pick_weighted(rng: &mut ChaCha8Rng, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().copied().map(u64::from).sum();
    let mut draw = match u32::try_from(total) {
        Ok(total) => u64::from(rng.gen_range(0..total)),
        Err(_) => rng.gen_range(0..total),
    };
    for (i, w) in weights.iter().copied().map(u64::from).enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
    }
    unreachable!("draw is below the total weight")
}

/// The fault kinds, as telemetry names them and as [`FaultCondition`]
/// indexes them.
const FAULT_NAMES: [&str; 3] = ["crash", "latency", "byzantine"];

/// The fault condition in force at some instant.
#[derive(Debug, Default)]
struct FaultCondition {
    /// Index of the next unapplied event.
    cursor: usize,
    crashed: bool,
    added_latency: Duration,
    byzantine: Option<Vec<u8>>,
    /// Per fault kind (in [`FAULT_NAMES`] order): whether the window in
    /// force has emitted its `FaultWindowHit` event. Cleared by the
    /// transition that closes the window, so each window announces itself
    /// once however many invocations land in it.
    announced: [bool; 3],
}

/// A [`Provider`] decorator that subjects a [`SimulatedProvider`] to a
/// [`FaultPlan`] on a shared [`Clock`].
///
/// Each invocation first applies every event scheduled at or before the
/// current clock time, then behaves accordingly: crashed devices fail
/// instantly, degraded links sleep the added latency before the real
/// invocation, and byzantine devices replace a successful payload with the
/// planted one (failures stay failures — a crashed-but-byzantine device
/// returns nothing at all).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use qce_runtime::{
///     Clock, FaultEvent, FaultKind, FaultPlan, FaultyProvider, Invocation,
///     Provider, SimulatedProvider, VirtualClock,
/// };
///
/// let clock: Arc<VirtualClock> = Arc::new(VirtualClock::new());
/// let inner = SimulatedProvider::builder("pi/read-temp", "read-temp")
///     .latency(Duration::from_millis(2))
///     .clock(Arc::clone(&clock) as Arc<dyn Clock>)
///     .build();
/// let plan = FaultPlan::new(vec![
///     FaultEvent { at: Duration::from_millis(10), kind: FaultKind::Crash },
///     FaultEvent { at: Duration::from_millis(20), kind: FaultKind::Recover },
/// ]);
/// let faulty = FaultyProvider::new(inner, Arc::clone(&clock) as Arc<dyn Clock>, plan);
///
/// assert!(faulty.invoke(&Invocation::new(1, "read-temp", vec![])).is_ok());
/// clock.advance(Duration::from_millis(10)); // into the crash window
/// assert!(faulty.invoke(&Invocation::new(2, "read-temp", vec![])).is_err());
/// clock.advance(Duration::from_millis(10)); // past the recovery
/// assert!(faulty.invoke(&Invocation::new(3, "read-temp", vec![])).is_ok());
/// ```
pub struct FaultyProvider {
    inner: Arc<SimulatedProvider>,
    clock: Arc<dyn Clock>,
    plan: FaultPlan,
    condition: Mutex<FaultCondition>,
    telemetry: Option<Arc<Telemetry>>,
    /// This provider's counters on `telemetry`, resolved by the first hit
    /// (so the provider enters snapshots then, not at construction).
    metrics: OnceLock<Arc<Scope>>,
}

impl fmt::Debug for FaultyProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyProvider")
            .field("inner", &self.inner)
            .field("events", &self.plan.events().len())
            .finish_non_exhaustive()
    }
}

impl FaultyProvider {
    /// Wraps `inner`, applying `plan` against `clock` (which should be the
    /// same clock the inner provider sleeps on).
    #[must_use]
    pub fn new(inner: Arc<SimulatedProvider>, clock: Arc<dyn Clock>, plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultyProvider {
            inner,
            clock,
            plan,
            condition: Mutex::new(FaultCondition::default()),
            telemetry: None,
            metrics: OnceLock::new(),
        })
    }

    /// Like [`FaultyProvider::new`], but every invocation that lands inside
    /// an active fault window is also counted as a
    /// [fault-window hit](crate::telemetry::EventKind::FaultWindowHit) on
    /// `telemetry`; the first one to land in a window also emits the event.
    #[must_use]
    pub fn with_telemetry(
        inner: Arc<SimulatedProvider>,
        clock: Arc<dyn Clock>,
        plan: FaultPlan,
        telemetry: Arc<Telemetry>,
    ) -> Arc<Self> {
        Arc::new(FaultyProvider {
            inner,
            clock,
            plan,
            condition: Mutex::new(FaultCondition::default()),
            telemetry: Some(telemetry),
            metrics: OnceLock::new(),
        })
    }

    /// The wrapped provider (for reading counters or turning knobs).
    #[must_use]
    pub fn inner(&self) -> &Arc<SimulatedProvider> {
        &self.inner
    }

    /// Applies every event due now, counts the invocation against each
    /// fault window it lands in, and returns the resulting condition.
    fn enter(&self) -> (bool, Duration, Option<Vec<u8>>) {
        let now = self.clock.now();
        let mut cond = self.condition.lock();
        while let Some(event) = self.plan.events.get(cond.cursor) {
            if event.at > now {
                break;
            }
            match &event.kind {
                FaultKind::Crash => cond.crashed = true,
                FaultKind::Recover => {
                    cond.crashed = false;
                    cond.announced[0] = false;
                }
                FaultKind::AddLatency(extra) => cond.added_latency = *extra,
                FaultKind::ClearLatency => {
                    cond.added_latency = Duration::ZERO;
                    cond.announced[1] = false;
                }
                FaultKind::Byzantine(payload) => cond.byzantine = Some(payload.clone()),
                FaultKind::Honest => {
                    cond.byzantine = None;
                    cond.announced[2] = false;
                }
            }
            cond.cursor += 1;
        }
        let condition = (cond.crashed, cond.added_latency, cond.byzantine.clone());
        let Some(telemetry) = &self.telemetry else {
            return condition;
        };
        // Per kind: `None` outside its window, else whether this is the
        // window's first hit — decided under the lock, emitted after it.
        let in_force = [condition.0, !condition.1.is_zero(), condition.2.is_some()];
        let mut hits = [None; 3];
        for ((hit, in_force), announced) in hits.iter_mut().zip(in_force).zip(&mut cond.announced) {
            if in_force {
                *hit = Some(!std::mem::replace(announced, true));
            }
        }
        drop(cond);
        for (first, fault) in hits.into_iter().zip(FAULT_NAMES) {
            let Some(first) = first else { continue };
            let metrics = self
                .metrics
                .get_or_init(|| telemetry.provider_metrics(self.id()));
            metrics.count_fault_window();
            if first {
                telemetry.record(EventKind::FaultWindowHit {
                    provider: self.id().to_string(),
                    fault: fault.to_string(),
                });
            }
        }
        condition
    }
}

impl Provider for FaultyProvider {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn capability(&self) -> &str {
        self.inner.capability()
    }

    fn cost(&self) -> f64 {
        self.inner.cost()
    }

    fn invoke(&self, request: &Invocation) -> Result<Vec<u8>, InvokeError> {
        let (crashed, added_latency, byzantine) = self.enter();
        if crashed {
            return Err(InvokeError::DeviceUnavailable);
        }
        if !added_latency.is_zero() {
            self.clock.sleep(added_latency);
        }
        let payload = self.inner.invoke(request)?;
        Ok(byzantine.unwrap_or(payload))
    }

    fn try_timed_invoke(
        &self,
        _request: &Invocation,
        clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        // Eligibility first, before any side effect: a declined probe must
        // leave the fault cursor, telemetry, and the inner provider's
        // counters untouched, because a blocking `invoke` follows and
        // applies them itself.
        if !self.inner.timed_eligible(clock) || !crate::clock::same_clock(&*self.clock, clock) {
            return None;
        }
        let (crashed, added_latency, byzantine) = self.enter();
        if crashed {
            // A crashed device fails before reaching the inner provider,
            // so the inner invocation counter must not move.
            return Some((Duration::ZERO, Err(InvokeError::DeviceUnavailable)));
        }
        let (latency, result) = self.inner.timed_sample();
        let result = match result {
            Ok(payload) => Ok(byzantine.unwrap_or(payload)),
            err => err,
        };
        Some((added_latency.saturating_add(latency), result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn at(ms: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: Duration::from_millis(ms),
            kind,
        }
    }

    fn rig(plan: FaultPlan) -> (Arc<VirtualClock>, Arc<FaultyProvider>) {
        let clock = Arc::new(VirtualClock::new());
        let inner = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(2))
            .response(vec![42])
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        let faulty = FaultyProvider::new(inner, Arc::clone(&clock) as Arc<dyn Clock>, plan);
        (clock, faulty)
    }

    #[test]
    fn plan_sorts_events_by_time() {
        let plan = FaultPlan::new(vec![at(30, FaultKind::Recover), at(10, FaultKind::Crash)]);
        assert_eq!(plan.events()[0].at, Duration::from_millis(10));
        assert_eq!(plan.events()[1].at, Duration::from_millis(30));
    }

    #[test]
    fn crash_window_fails_then_recovers() {
        let (clock, p) = rig(FaultPlan::new(vec![
            at(10, FaultKind::Crash),
            at(30, FaultKind::Recover),
        ]));
        let req = Invocation::new(0, "cap", vec![]);
        assert!(p.invoke(&req).is_ok());
        clock.advance(Duration::from_millis(10)); // now 12 ms: crashed
        let before = clock.now();
        assert_eq!(p.invoke(&req).unwrap_err(), InvokeError::DeviceUnavailable);
        assert_eq!(clock.now(), before, "crash failure is instant");
        clock.advance(Duration::from_millis(20)); // past recovery
        assert_eq!(p.invoke(&req).unwrap(), vec![42]);
    }

    #[test]
    fn latency_fault_adds_exactly_the_spike() {
        let (clock, p) = rig(FaultPlan::new(vec![at(
            0,
            FaultKind::AddLatency(Duration::from_millis(20)),
        )]));
        let t0 = clock.now();
        p.invoke(&Invocation::new(0, "cap", vec![])).unwrap();
        assert_eq!(clock.now() - t0, Duration::from_millis(22));
    }

    #[test]
    fn byzantine_window_replaces_payload() {
        let (clock, p) = rig(FaultPlan::new(vec![
            at(5, FaultKind::Byzantine(vec![99])),
            at(15, FaultKind::Honest),
        ]));
        let req = Invocation::new(0, "cap", vec![]);
        assert_eq!(p.invoke(&req).unwrap(), vec![42], "honest before onset");
        clock.advance(Duration::from_millis(5)); // now 7 ms: lying
        assert_eq!(p.invoke(&req).unwrap(), vec![99]);
        clock.advance(Duration::from_millis(10)); // past honesty
        assert_eq!(p.invoke(&req).unwrap(), vec![42]);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_ordered() {
        let profile = FaultProfile::default();
        let horizon = Duration::from_secs(5);
        let a = FaultPlan::seeded(7, horizon, &profile);
        let b = FaultPlan::seeded(7, horizon, &profile);
        assert_eq!(a, b);
        assert!(!a.events().is_empty());
        assert!(a.events().windows(2).all(|pair| pair[0].at <= pair[1].at));
        let c = FaultPlan::seeded(8, horizon, &profile);
        assert_ne!(a, c, "different seeds draw different misfortunes");
    }

    #[test]
    fn fault_window_hits_are_counted() {
        use crate::telemetry::EventKind;
        let clock = Arc::new(VirtualClock::new());
        let telemetry = Telemetry::new(Arc::clone(&clock) as Arc<dyn Clock>, 8);
        let inner = SimulatedProvider::builder("d/cap", "cap")
            .latency(Duration::from_millis(2))
            .response(vec![42])
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build();
        let p = FaultyProvider::with_telemetry(
            inner,
            Arc::clone(&clock) as Arc<dyn Clock>,
            FaultPlan::new(vec![
                at(10, FaultKind::Crash),
                at(30, FaultKind::Recover),
                at(50, FaultKind::Crash),
                at(60, FaultKind::Byzantine(vec![9])),
            ]),
            Arc::clone(&telemetry),
        );
        let hits = || {
            telemetry
                .snapshot()
                .provider("d/cap")
                .unwrap()
                .fault_window_hits
        };
        let events = || -> Vec<String> {
            let events = telemetry.events();
            let kinds = events.iter().map(|e| match &e.kind {
                EventKind::FaultWindowHit { provider, fault } if provider == "d/cap" => {
                    fault.clone()
                }
                other => panic!("unexpected event {other:?}"),
            });
            kinds.collect()
        };
        let req = Invocation::new(0, "cap", vec![]);
        assert!(p.invoke(&req).is_ok(), "healthy invocation records no hit");
        assert!(telemetry.snapshot().provider("d/cap").is_none());

        // Every hit in a window is counted; the window is announced once,
        // whichever entry point lands in it first.
        clock.advance(Duration::from_millis(10));
        assert!(p.invoke(&req).is_err());
        assert!(p.try_timed_invoke(&req, &*clock).unwrap().1.is_err());
        assert!(p.invoke(&req).is_err());
        assert_eq!(hits(), 3);
        assert_eq!(events(), ["crash"]);

        // A probe the provider declines (foreign clock) leaves the fault
        // cursor, the counter and the ring alone — although a new window
        // has opened by now.
        clock.advance(Duration::from_millis(40)); // past recovery, crashed again
        assert!(p.try_timed_invoke(&req, &VirtualClock::new()).is_none());
        assert_eq!(p.condition.lock().cursor, 1);
        assert_eq!(hits(), 3);
        assert_eq!(events(), ["crash"]);

        // The second crash window is a second event.
        assert!(p.try_timed_invoke(&req, &*clock).unwrap().1.is_err());
        assert!(p.invoke(&req).is_err());
        assert_eq!(p.condition.lock().cursor, 3);
        assert_eq!(hits(), 5);
        assert_eq!(events(), ["crash", "crash"]);

        // A window of another kind opening inside it announces itself; the
        // crash window still in force does not announce itself again.
        clock.advance(Duration::from_millis(10));
        assert!(p.invoke(&req).is_err());
        assert_eq!(hits(), 7, "one hit per window in force");
        assert_eq!(events(), ["crash", "crash", "byzantine"]);
    }

    #[test]
    fn timed_invoke_matches_blocking_across_fault_windows() {
        let plan = FaultPlan::new(vec![
            at(10, FaultKind::AddLatency(Duration::from_millis(20))),
            at(40, FaultKind::ClearLatency),
            at(50, FaultKind::Byzantine(vec![99])),
            at(70, FaultKind::Honest),
            at(80, FaultKind::Crash),
        ]);
        let (timed_clock, timed) = rig(plan.clone());
        let (block_clock, blocking) = rig(plan);
        let req = Invocation::new(0, "cap", vec![]);
        for step in 0..10u64 {
            let (latency, result) = timed
                .try_timed_invoke(&req, &*timed_clock)
                .expect("same clock and no capacity limit: timed-eligible");
            let t0 = block_clock.now();
            let blocked = blocking.invoke(&req);
            assert_eq!(block_clock.now() - t0, latency, "step {step}");
            assert_eq!(blocked, result, "step {step}");
            // Timed sampling never advances its clock; step both clocks
            // through the fault windows in lockstep by hand.
            let catch_up = block_clock.now() - timed_clock.now();
            timed_clock.advance(catch_up + Duration::from_millis(9));
            block_clock.advance(Duration::from_millis(9));
        }
        assert_eq!(timed.inner().invocations(), blocking.inner().invocations());
    }

    #[test]
    fn timed_probe_on_foreign_clock_has_no_side_effects() {
        let (_clock, p) = rig(FaultPlan::new(vec![at(0, FaultKind::Crash)]));
        let other = VirtualClock::new();
        let req = Invocation::new(0, "cap", vec![]);
        assert!(p.try_timed_invoke(&req, &other).is_none());
        assert_eq!(
            p.inner().invocations(),
            0,
            "declined probe must not touch the inner provider"
        );
    }

    /// Weights are `u32`s a scenario file may set to anything: their sum
    /// once overflowed, panicking in a debug build and drawing from an
    /// empty range in a release one. All zero is no fault at all.
    #[test]
    fn seeded_plans_take_any_weights() {
        let horizon = Duration::from_secs(5);
        let huge = FaultProfile {
            crash_weight: u32::MAX,
            latency_weight: 1,
            byzantine_weight: u32::MAX,
            ..FaultProfile::default()
        };
        let plan = FaultPlan::seeded(7, horizon, &huge);
        assert!(!plan.events().is_empty());
        assert_eq!(plan, FaultPlan::seeded(7, horizon, &huge));
        let silent = FaultProfile {
            crash_weight: 0,
            latency_weight: 0,
            byzantine_weight: 0,
            ..FaultProfile::default()
        };
        assert_eq!(FaultPlan::seeded(7, horizon, &silent), FaultPlan::none());
    }

    #[test]
    fn seeded_plan_pairs_onset_with_clearance() {
        let plan = FaultPlan::seeded(3, Duration::from_secs(10), &FaultProfile::default());
        let onsets = plan
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::Crash | FaultKind::AddLatency(_) | FaultKind::Byzantine(_)
                )
            })
            .count();
        assert_eq!(onsets * 2, plan.events().len());
    }
}
