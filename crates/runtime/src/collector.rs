//! The QoS collector of the gateway's feedback loop (paper Section IV.B).
//!
//! The collector "keeps updating the QoS characteristics of microservices
//! until their executions complete": every completed invocation is recorded
//! against its provider, and the generator reads back windowed averages.
//! Until a provider has observations, the script's *prior* QoS is used —
//! that is why the first time slot runs the default strategy. What the
//! gateway assumes about a provider is one rule, `Collector::assumed` (the
//! window, else the prior with the advertised cost), read once per
//! candidate by provider selection at a slot boundary.
//!
//! Each provider's window sits behind a small lock of its own, in a map of
//! shared handles (`ProviderWindow`). The request path resolves a
//! provider's handle once per slot plan and records through it, so a leg
//! takes the window's lock and nothing else; the by-name
//! [`Collector::record`] is a lookup into the same handle. Windows are
//! cleared in place by [`Collector::reset`], never removed, so a handle
//! resolved before a reset records into the emptied window.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use qce_strategy::Qos;

/// One completed invocation, as recorded by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Whether the invocation succeeded.
    pub success: bool,
    /// Wall-clock latency of the invocation.
    pub latency: Duration,
    /// Cost charged for the invocation.
    pub cost: f64,
}

/// Windowed statistics for one provider.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProviderStats {
    /// Number of observations in the window.
    pub count: usize,
    /// Fraction of successful invocations.
    pub success_rate: f64,
    /// Mean latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Mean charged cost.
    pub mean_cost: f64,
}

impl ProviderStats {
    /// Converts the stats into the estimator's QoS representation (latency
    /// in milliseconds), or `None` when the window's aggregates are out of
    /// the QoS domain (non-finite or negative mean cost/latency).
    ///
    /// A window can be degenerate even though every [`ExecutionRecord`] was
    /// accepted: records carry raw `f64` costs, so one invocation of a
    /// provider advertising `NaN` poisons the mean. Planning must treat
    /// such a window like "no history" rather than panic or leak `NaN`
    /// into `Planner::plan_slot_for` and the plan-cache quantizer.
    #[must_use]
    pub fn checked_qos(&self) -> Option<Qos> {
        Qos::new(self.mean_cost, self.mean_latency_ms, self.success_rate).ok()
    }
}

/// Thread-safe, windowed QoS statistics keyed by provider id.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::{Collector, ExecutionRecord};
///
/// let collector = Collector::new(100);
/// collector.record("pi/read-temp-sensor", ExecutionRecord {
///     success: true,
///     latency: Duration::from_millis(30),
///     cost: 50.0,
/// });
/// let stats = collector.stats("pi/read-temp-sensor").unwrap();
/// assert_eq!(stats.count, 1);
/// assert_eq!(stats.mean_cost, 50.0);
/// ```
#[derive(Debug)]
pub struct Collector {
    window: usize,
    windows: RwLock<HashMap<String, Arc<ProviderWindow>>>,
}

/// One provider's sliding window of records, behind its own lock: the
/// handle a slot plan resolves once and every leg on the provider records
/// through.
#[derive(Debug)]
pub(crate) struct ProviderWindow {
    capacity: usize,
    ring: Mutex<VecDeque<ExecutionRecord>>,
}

impl ProviderWindow {
    /// Appends `record`, evicting the oldest one when the window is full.
    pub(crate) fn push(&self, record: ExecutionRecord) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }
}

impl Collector {
    /// Creates a collector that keeps the most recent `window` observations
    /// per provider; a window of `0` keeps one.
    #[must_use]
    pub fn new(window: usize) -> Self {
        Collector {
            window: window.max(1),
            windows: RwLock::new(HashMap::new()),
        }
    }

    /// The window size (at least 1).
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Runs `f` on `provider_id`'s window, creating it on the provider's
    /// first record. The map's read guard is held for the call, so a hit
    /// costs a hash and no reference count.
    fn with_window<R>(&self, provider_id: &str, f: impl FnOnce(&Arc<ProviderWindow>) -> R) -> R {
        if let Some(window) = self.windows.read().get(provider_id) {
            return f(window);
        }
        let mut map = self.windows.write();
        let window = map.entry(provider_id.to_string()).or_insert_with(|| {
            Arc::new(ProviderWindow {
                capacity: self.window,
                ring: Mutex::new(VecDeque::new()),
            })
        });
        f(window)
    }

    /// The handle on `provider_id`'s window, created if the provider has
    /// none yet. It stays valid across [`Collector::reset`].
    pub(crate) fn provider_window(&self, provider_id: &str) -> Arc<ProviderWindow> {
        self.with_window(provider_id, Arc::clone)
    }

    /// Records one completed invocation for `provider_id`.
    pub fn record(&self, provider_id: &str, record: ExecutionRecord) {
        self.with_window(provider_id, |window| window.push(record));
    }

    /// Windowed statistics for `provider_id`, or `None` if it has no
    /// observations yet.
    #[must_use]
    pub fn stats(&self, provider_id: &str) -> Option<ProviderStats> {
        let map = self.windows.read();
        let ring = map.get(provider_id)?.ring.lock();
        if ring.is_empty() {
            return None;
        }
        let count = ring.len();
        let successes = ring.iter().filter(|r| r.success).count();
        let mean_latency_ms = ring
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .sum::<f64>()
            / count as f64;
        let mean_cost = ring.iter().map(|r| r.cost).sum::<f64>() / count as f64;
        Some(ProviderStats {
            count,
            success_rate: successes as f64 / count as f64,
            mean_latency_ms,
            mean_cost,
        })
    }

    /// The window half of what the gateway assumes about a provider:
    /// `provider_id`'s window when [`ProviderStats::checked_qos`] accepts
    /// it, `prior` otherwise, so a total-blackout slot or a poisoned cost
    /// never aborts planning.
    #[must_use]
    pub fn qos_or_prior(&self, provider_id: &str, prior: &Qos) -> Qos {
        self.stats(provider_id)
            .and_then(|s| s.checked_qos())
            .unwrap_or(*prior)
    }

    /// The QoS the gateway assumes for `provider`: its window when
    /// [`ProviderStats::checked_qos`] accepts it, else `prior` with the
    /// provider's advertised cost if that cost is in the QoS domain — a
    /// self-reported `NaN`, `-1.0` or `∞` keeps the prior's.
    pub(crate) fn assumed(&self, provider: &dyn crate::Provider, prior: &Qos) -> Qos {
        let cost = provider.cost();
        let prior = if cost.is_finite() && cost >= 0.0 {
            Qos { cost, ..*prior }
        } else {
            *prior
        };
        self.qos_or_prior(provider.id(), &prior)
    }

    /// Number of observations currently stored for `provider_id`.
    #[must_use]
    pub fn observation_count(&self, provider_id: &str) -> usize {
        let map = self.windows.read();
        map.get(provider_id)
            .map_or(0, |window| window.ring.lock().len())
    }

    /// Forgets every observation for `provider_id` (e.g. when a device
    /// re-registers after leaving the environment). The window is emptied
    /// in place: a leg still in flight records into it afresh.
    pub fn reset(&self, provider_id: &str) {
        if let Some(window) = self.windows.read().get(provider_id) {
            window.ring.lock().clear();
        }
    }

    /// Ids of all providers with at least one observation.
    #[must_use]
    pub fn provider_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .windows
            .read()
            .iter()
            .filter(|(_, window)| !window.ring.lock().is_empty())
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(success: bool, ms: u64, cost: f64) -> ExecutionRecord {
        ExecutionRecord {
            success,
            latency: Duration::from_millis(ms),
            cost,
        }
    }

    #[test]
    fn zero_window_holds_one_record() {
        let c = Collector::new(0);
        assert_eq!(c.window(), 1);
        c.record("p", rec(true, 10, 5.0));
        c.record("p", rec(false, 30, 7.0));
        assert_eq!(c.observation_count("p"), 1);
        assert_eq!(c.stats("p").unwrap().mean_cost, 7.0);
    }

    #[test]
    fn empty_collector_has_no_stats() {
        let c = Collector::new(10);
        assert!(c.stats("x").is_none());
        assert_eq!(c.observation_count("x"), 0);
        assert!(c.provider_ids().is_empty());
    }

    #[test]
    fn stats_aggregate_correctly() {
        let c = Collector::new(10);
        c.record("p", rec(true, 10, 5.0));
        c.record("p", rec(false, 30, 7.0));
        let s = c.stats("p").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.success_rate, 0.5);
        assert!((s.mean_latency_ms - 20.0).abs() < 1e-9);
        assert_eq!(s.mean_cost, 6.0);
        let qos = s.checked_qos().unwrap();
        assert_eq!(qos.reliability.value(), 0.5);
    }

    #[test]
    fn window_evicts_oldest() {
        let c = Collector::new(3);
        for i in 0..5 {
            c.record("p", rec(true, 10 * (i + 1), 1.0));
        }
        let s = c.stats("p").unwrap();
        assert_eq!(s.count, 3);
        // Only records 3, 4, 5 remain: latencies 30, 40, 50.
        assert!((s.mean_latency_ms - 40.0).abs() < 1e-9);
    }

    #[test]
    fn window_reflects_reliability_shift() {
        // A reliability drop becomes visible once old successes age out —
        // the mechanism behind the Fig. 8 adaptation.
        let c = Collector::new(10);
        for _ in 0..10 {
            c.record("p", rec(true, 10, 1.0));
        }
        assert_eq!(c.stats("p").unwrap().success_rate, 1.0);
        for _ in 0..10 {
            c.record("p", rec(false, 10, 1.0));
        }
        assert_eq!(c.stats("p").unwrap().success_rate, 0.0);
    }

    #[test]
    fn prior_used_until_observations_arrive() {
        let c = Collector::new(10);
        let prior = Qos::new(50.0, 60.0, 0.7).unwrap();
        assert_eq!(c.qos_or_prior("p", &prior), prior);
        c.record("p", rec(true, 10, 5.0));
        let qos = c.qos_or_prior("p", &prior);
        assert_eq!(qos.cost, 5.0);
        assert_eq!(qos.reliability.value(), 1.0);
    }

    #[test]
    fn reset_forgets() {
        let c = Collector::new(10);
        c.record("p", rec(true, 10, 5.0));
        c.record("q", rec(true, 10, 5.0));
        assert_eq!(c.provider_ids(), vec!["p".to_string(), "q".to_string()]);
        c.reset("p");
        assert!(c.stats("p").is_none());
        assert!(c.stats("q").is_some());
        c.reset("q");
        assert!(c.provider_ids().is_empty());
    }

    #[test]
    fn poisoned_cost_window_falls_back_to_prior() {
        // Regression (scenario suite): a provider that advertises a NaN
        // cost gets that cost recorded verbatim by the engine; the window
        // mean is then NaN. `qos_or_prior` used to call a panicking
        // conversion here, taking the whole planning path down during a
        // blackout-storm slot. It must fall back to the prior instead.
        let c = Collector::new(10);
        let prior = Qos::new(50.0, 60.0, 0.7).unwrap();
        c.record("p", rec(false, 0, f64::NAN));
        let s = c.stats("p").unwrap();
        assert!(s.mean_cost.is_nan());
        assert!(s.checked_qos().is_none());
        assert_eq!(c.qos_or_prior("p", &prior), prior);

        // Same for an infinite advertised cost.
        c.reset("p");
        c.record("p", rec(true, 5, f64::INFINITY));
        assert_eq!(c.qos_or_prior("p", &prior), prior);
    }

    #[test]
    fn advertised_cost_substitution_is_validated() {
        use crate::device::SimulatedProvider;
        let prior = Qos::new(50.0, 60.0, 0.7).unwrap();
        let c = Collector::new(10);
        let assumed = |cost: f64| {
            let provider = SimulatedProvider::builder("p", "x").cost(cost).build();
            c.assumed(provider.as_ref(), &prior)
        };
        assert_eq!(assumed(5.0), Qos { cost: 5.0, ..prior });
        assert_eq!(assumed(f64::NAN), prior);
        assert_eq!(assumed(-1.0), prior);
        assert_eq!(assumed(f64::INFINITY), prior);
        // A usable window wins over the advertised cost.
        c.record("p", rec(true, 10, 7.0));
        assert_eq!(assumed(5.0).cost, 7.0);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        use std::sync::Arc;
        let c = Arc::new(Collector::new(1000));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..100 {
                        c.record("shared", rec((t + i) % 2 == 0, 5, 1.0));
                    }
                });
            }
        });
        assert_eq!(c.observation_count("shared"), 800);
        let s = c.stats("shared").unwrap();
        assert_eq!(s.success_rate, 0.5);
    }
}
