//! The gateway's microservice registry.
//!
//! Edge devices register the microservices they host (paper Section V.B:
//! "each edge device registers its available microservices and their usage
//! costs with the gateway"). When a service script is provisioned, the
//! registry resolves each required *capability* to the provider with the
//! best current QoS — the paper's Assumption 1: "although multiple devices
//! can provide a microservice in an edge environment, our system only
//! selects the one with the best QoS".

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use qce_strategy::{Qos, Requirements, UtilityIndex};

use crate::collector::Collector;
use crate::device::Provider;
use crate::message::RuntimeError;

/// Thread-safe capability → providers index.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::{Registry, SimulatedProvider};
///
/// let registry = Registry::new();
/// registry.register(
///     SimulatedProvider::builder("pi/read-temp", "read-temp")
///         .latency(Duration::from_millis(1))
///         .build(),
/// );
/// assert_eq!(registry.providers_for("read-temp").len(), 1);
/// assert!(registry.providers_for("unknown").is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    by_capability: RwLock<HashMap<String, Vec<Arc<dyn Provider>>>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a provider under its capability. Re-registering the same
    /// provider id replaces the previous entry.
    pub fn register(&self, provider: Arc<dyn Provider>) {
        let mut map = self.by_capability.write();
        let entry = map.entry(provider.capability().to_string()).or_default();
        entry.retain(|p| p.id() != provider.id());
        entry.push(provider);
    }

    /// Removes a provider by id (e.g. the device left the environment).
    /// Returns `true` if something was removed.
    pub fn deregister(&self, provider_id: &str) -> bool {
        let mut map = self.by_capability.write();
        let mut removed = false;
        for entry in map.values_mut() {
            let before = entry.len();
            entry.retain(|p| p.id() != provider_id);
            removed |= entry.len() != before;
        }
        map.retain(|_, v| !v.is_empty());
        removed
    }

    /// All providers for `capability` (registration order).
    #[must_use]
    pub fn providers_for(&self, capability: &str) -> Vec<Arc<dyn Provider>> {
        self.by_capability
            .read()
            .get(capability)
            .cloned()
            .unwrap_or_default()
    }

    /// All registered capabilities, sorted.
    #[must_use]
    pub fn capabilities(&self) -> Vec<String> {
        let mut caps: Vec<String> = self.by_capability.read().keys().cloned().collect();
        caps.sort();
        caps
    }

    /// Selects the provider of `capability` with the best current QoS
    /// (Assumption 1), judged by the utility index against `requirements`,
    /// and returns it with the QoS it was judged on: its collector window,
    /// or `prior` with its advertised cost while it has no usable history.
    /// That row is what a slot plans over, so the gateway reads each
    /// candidate once per slot boundary.
    ///
    /// Ranking is a total order (`f64::total_cmp`, ties to the smaller id),
    /// so selection stays well-defined even when tiny valid requirements
    /// push a utility to `NaN`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoProvider`] when no provider is registered
    /// for the capability.
    pub fn best_provider(
        &self,
        capability: &str,
        prior: &Qos,
        collector: &Collector,
        utility: UtilityIndex,
        requirements: &Requirements,
    ) -> Result<(Arc<dyn Provider>, Qos), RuntimeError> {
        self.providers_for(capability)
            .into_iter()
            .map(|p| {
                let assumed = collector.assumed(p.as_ref(), prior);
                (utility.utility(&assumed, requirements), p, assumed)
            })
            .max_by(|(ua, pa, _), (ub, pb, _)| ua.total_cmp(ub).then_with(|| pb.id().cmp(pa.id())))
            .map(|(_, p, assumed)| (p, assumed))
            .ok_or_else(|| RuntimeError::NoProvider {
                capability: capability.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::ExecutionRecord;
    use crate::device::SimulatedProvider;
    use std::time::Duration;

    fn provider(id: &str, capability: &str, cost: f64) -> Arc<SimulatedProvider> {
        SimulatedProvider::builder(id, capability)
            .cost(cost)
            .latency(Duration::from_millis(1))
            .build()
    }

    fn requirements() -> Requirements {
        Requirements::new(100.0, 100.0, 0.9).unwrap()
    }

    #[test]
    fn register_and_lookup() {
        let registry = Registry::new();
        registry.register(provider("d1/x", "x", 1.0));
        registry.register(provider("d2/x", "x", 2.0));
        registry.register(provider("d1/y", "y", 1.0));
        assert_eq!(registry.providers_for("x").len(), 2);
        assert_eq!(registry.providers_for("y").len(), 1);
        assert_eq!(
            registry.capabilities(),
            vec!["x".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn reregistration_replaces() {
        let registry = Registry::new();
        registry.register(provider("d1/x", "x", 1.0));
        registry.register(provider("d1/x", "x", 5.0));
        let providers = registry.providers_for("x");
        assert_eq!(providers.len(), 1);
        assert_eq!(providers[0].cost(), 5.0);
    }

    #[test]
    fn deregister_removes() {
        let registry = Registry::new();
        registry.register(provider("d1/x", "x", 1.0));
        assert!(registry.deregister("d1/x"));
        assert!(!registry.deregister("d1/x"));
        assert!(registry.providers_for("x").is_empty());
        assert!(registry.capabilities().is_empty());
    }

    #[test]
    fn best_provider_errors_when_none() {
        let registry = Registry::new();
        let collector = Collector::new(10);
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        assert!(matches!(
            registry.best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements()
            ),
            Err(RuntimeError::NoProvider { .. })
        ));
    }

    #[test]
    fn best_provider_prefers_cheaper_without_history() {
        let registry = Registry::new();
        registry.register(provider("d1/x", "x", 80.0));
        registry.register(provider("d2/x", "x", 20.0));
        let collector = Collector::new(10);
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let best = registry
            .best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements(),
            )
            .unwrap()
            .0;
        assert_eq!(best.id(), "d2/x", "lower advertised cost wins");
    }

    #[test]
    fn best_provider_uses_collector_history() {
        let registry = Registry::new();
        registry.register(provider("slow/x", "x", 10.0));
        registry.register(provider("fast/x", "x", 10.0));
        let collector = Collector::new(10);
        // History says "slow/x" is terrible and "fast/x" is great.
        for _ in 0..5 {
            collector.record(
                "slow/x",
                ExecutionRecord {
                    success: false,
                    latency: Duration::from_millis(900),
                    cost: 10.0,
                },
            );
            collector.record(
                "fast/x",
                ExecutionRecord {
                    success: true,
                    latency: Duration::from_millis(5),
                    cost: 10.0,
                },
            );
        }
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let best = registry
            .best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements(),
            )
            .unwrap()
            .0;
        assert_eq!(best.id(), "fast/x");
    }

    #[test]
    fn nan_advertised_cost_does_not_poison_selection() {
        // Regression (scenario suite): without history the prior
        // substitution used struct-update (`Qos { cost: p.cost(), .. }`),
        // bypassing `Qos::new` validation. A provider registering a NaN
        // cost then produced a NaN utility and `best_provider` panicked on
        // `partial_cmp().expect("utilities are finite")` — exactly when a
        // blackout storm had emptied the collector window.
        let registry = Registry::new();
        registry.register(provider("evil/x", "x", f64::NAN));
        registry.register(provider("good/x", "x", 10.0));
        let collector = Collector::new(10);
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let best = registry
            .best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements(),
            )
            .unwrap()
            .0;
        assert_eq!(best.id(), "good/x", "finite advertised cost wins");
    }

    #[test]
    fn poisoned_window_falls_back_to_prior_in_selection() {
        // A NaN cost that made it into the window (recorded from a
        // poisoned invocation) must be treated as "no history", not crash
        // the gateway's planning path.
        let registry = Registry::new();
        registry.register(provider("p1/x", "x", 10.0));
        let collector = Collector::new(10);
        collector.record(
            "p1/x",
            ExecutionRecord {
                success: true,
                latency: Duration::from_millis(5),
                cost: f64::NAN,
            },
        );
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let best = registry
            .best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements(),
            )
            .unwrap()
            .0;
        assert_eq!(best.id(), "p1/x");
    }

    #[test]
    fn tie_break_is_deterministic() {
        let registry = Registry::new();
        registry.register(provider("b/x", "x", 10.0));
        registry.register(provider("a/x", "x", 10.0));
        let collector = Collector::new(10);
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let best = registry
            .best_provider(
                "x",
                &prior,
                &collector,
                UtilityIndex::default(),
                &requirements(),
            )
            .unwrap()
            .0;
        assert_eq!(best.id(), "a/x", "lexicographically smaller id wins ties");
    }

    #[test]
    fn selection_is_total_when_utilities_are_nan() {
        // Valid but tiny requirements overflow Equation 1's normalisation:
        // the cost term is −∞, the reliability term +∞, and every
        // candidate's utility is NaN. Ranking must stay a total order,
        // ties to the id.
        let registry = Registry::new();
        registry.register(provider("b/x", "x", 10.0));
        registry.register(provider("a/x", "x", 10.0));
        let collector = Collector::new(10);
        let prior = Qos::new(50.0, 50.0, 0.7).unwrap();
        let tiny = Requirements::new(1e-310, 100.0, 1e-310).unwrap();
        assert!(UtilityIndex::default().utility(&prior, &tiny).is_nan());
        let (best, assumed) = registry
            .best_provider("x", &prior, &collector, UtilityIndex::default(), &tiny)
            .unwrap();
        assert_eq!(best.id(), "a/x");
        assert_eq!(
            assumed,
            Qos {
                cost: 10.0,
                ..prior
            }
        );
    }
}
