//! The [`Estimator`] abstraction — QoS estimation behind a trait object.
//!
//! The free functions [`estimate`](crate::estimate::estimate) and
//! [`estimate_folding`](crate::estimate::estimate_folding) hard-code one
//! algorithm each. Generators, benchmark tables, and the runtime instead
//! accept `&dyn Estimator` (usually via `Arc<dyn Estimator>`), so the
//! estimation algorithm is swappable:
//!
//! * [`Algorithm1`] — the paper's Algorithm 1, with a per-environment
//!   memo cache keyed by the canonical strategy tree;
//! * [`Folding`] — the pairwise folding baseline of prior work \[15\].

use std::collections::HashMap;
use std::sync::Mutex;

use crate::error::EstimateError;
use crate::estimate::{algorithm1, folding};
use crate::expr::Strategy;
use crate::qos::{EnvQos, Qos};

/// A QoS estimator: maps a strategy and an environment to an expected
/// [`Qos`].
///
/// Implementations must be `Send + Sync` — the synthesis engine shares one
/// estimator across worker threads.
pub trait Estimator: Send + Sync + std::fmt::Debug {
    /// Estimates the QoS of `strategy` under `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::MissingMicroservice`] (or an
    /// implementation-defined variant — the enum is `#[non_exhaustive]`)
    /// when the environment does not cover the strategy.
    fn estimate(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError>;

    /// Like [`Estimator::estimate`] but guaranteed not to populate any
    /// internal cache.
    ///
    /// Exhaustive search evaluates tens of thousands of candidates per
    /// environment; caching each one would evict the entries callers
    /// actually re-query. The default forwards to `estimate`.
    fn estimate_uncached(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
        self.estimate(strategy, env)
    }

    /// `true` iff this estimator is bit-for-bit identical to the paper's
    /// Algorithm 1 ([`crate::estimate::estimate`]).
    ///
    /// The generator's branch-and-bound fast path derives its admissible
    /// bounds from Algorithm 1's cost/latency/reliability formulas, so it
    /// only engages when this returns `true`; other estimators fall back
    /// to the generic (unpruned, optionally chunk-parallel) search.
    fn is_algorithm1(&self) -> bool {
        false
    }

    /// A short human-readable name for reports and logs.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Upper bound on memoized `(environment, strategy) → Qos` entries held by
/// [`Algorithm1`] before the cache is cleared wholesale.
const MEMO_CAPACITY: usize = 1 << 16;

/// Upper bound on distinct environments interned for epoch numbering; the
/// table is reset (together with the memo) when it fills up.
const ENV_CAPACITY: usize = 64;

/// The paper's Algorithm 1 behind the [`Estimator`] trait, memoizing
/// `(environment epoch, canonical strategy) → Qos`.
///
/// Environments are interned by exact equality into a small epoch table, so
/// the memo key is `(epoch, Strategy)` — the canonical strategy tree
/// ([`Strategy`] hashes its flattened, `*`-sorted [`Node`](crate::expr::Node))
/// plus a dense environment index. A cached hit returns the very `Qos`
/// produced by the original call, so memoization is bit-for-bit transparent.
///
/// The cache is bounded (`MEMO_CAPACITY` entries) and cleared wholesale
/// when full — per-slot replanning re-estimates a handful of deployed
/// strategies per environment, which fits comfortably.
#[derive(Debug, Default)]
pub struct Algorithm1 {
    inner: Mutex<Memo>,
}

#[derive(Debug, Default)]
struct Memo {
    /// Interned environments; the index is the epoch in the memo key.
    envs: Vec<EnvQos>,
    cache: HashMap<(usize, Strategy), Qos>,
    hits: u64,
    misses: u64,
}

impl Algorithm1 {
    /// Creates a fresh estimator with an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized estimates currently held.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.inner.lock().expect("memo lock poisoned").cache.len()
    }

    /// `(hits, misses)` counters since construction (or the last clear has
    /// no effect on them — they are cumulative).
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        let memo = self.inner.lock().expect("memo lock poisoned");
        (memo.hits, memo.misses)
    }

    /// Drops every memoized entry and interned environment.
    pub fn clear_cache(&self) {
        let mut memo = self.inner.lock().expect("memo lock poisoned");
        memo.envs.clear();
        memo.cache.clear();
    }
}

impl Estimator for Algorithm1 {
    fn estimate(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
        let mut memo = self.inner.lock().expect("memo lock poisoned");
        let epoch = match memo.envs.iter().position(|known| known == env) {
            Some(i) => i,
            None => {
                if memo.envs.len() >= ENV_CAPACITY {
                    memo.envs.clear();
                    memo.cache.clear();
                }
                memo.envs.push(env.clone());
                memo.envs.len() - 1
            }
        };
        if let Some(&qos) = memo.cache.get(&(epoch, strategy.clone())) {
            memo.hits += 1;
            return Ok(qos);
        }
        memo.misses += 1;
        // Estimate outside the map entry to keep the borrow simple; the
        // lock is held throughout so concurrent callers observe a
        // consistent cache.
        let qos = algorithm1::estimate(strategy, env)?;
        if memo.cache.len() >= MEMO_CAPACITY {
            memo.cache.clear();
        }
        memo.cache.insert((epoch, strategy.clone()), qos);
        Ok(qos)
    }

    fn estimate_uncached(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
        algorithm1::estimate(strategy, env)
    }

    fn is_algorithm1(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "algorithm1"
    }
}

/// The pairwise folding baseline \[15\] behind the [`Estimator`] trait.
///
/// Stateless; exists so comparison benchmarks can drive the same generator
/// and report plumbing with the weaker estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folding;

impl Folding {
    /// Creates the (stateless) folding estimator.
    #[must_use]
    pub fn new() -> Self {
        Folding
    }
}

impl Estimator for Folding {
    fn estimate(&self, strategy: &Strategy, env: &EnvQos) -> Result<Qos, EstimateError> {
        folding::estimate_folding(strategy, env)
    }

    fn name(&self) -> &'static str {
        "folding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::StrategySampler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env5() -> EnvQos {
        EnvQos::from_triples(&[
            (50.0, 50.0, 0.6),
            (100.0, 100.0, 0.6),
            (150.0, 150.0, 0.7),
            (200.0, 200.0, 0.7),
            (250.0, 250.0, 0.8),
        ])
        .unwrap()
    }

    #[test]
    fn algorithm1_matches_free_function() {
        let est = Algorithm1::new();
        let env = env5();
        for text in ["a-b-c-d-e", "a*b*c*d*e", "c*(a*b-d*e)"] {
            let s = Strategy::parse(text).unwrap();
            let expected = crate::estimate::estimate(&s, &env).unwrap();
            assert_eq!(est.estimate(&s, &env).unwrap(), expected);
            // Second call must hit the cache and return the same value.
            assert_eq!(est.estimate(&s, &env).unwrap(), expected);
        }
        let (hits, misses) = est.cache_stats();
        assert_eq!((hits, misses), (3, 3));
    }

    #[test]
    fn memoized_estimates_are_bit_identical_over_sampled_strategies() {
        // Satellite test (b): 1,000 sampled strategies at M=5 agree
        // bit-for-bit between the memoized estimator and the plain
        // Algorithm 1 — exercised twice so the second pass is all hits.
        let env = env5();
        let ids = env.ids();
        let sampler = crate::IdSet::new(&ids)
            .and_then(StrategySampler::new)
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let est = Algorithm1::new();
        let samples: Vec<Strategy> = (0..1000).map(|_| sampler.sample(&mut rng)).collect();
        for pass in 0..2 {
            for s in &samples {
                let plain = crate::estimate::estimate(s, &env).unwrap();
                let memo = est.estimate(s, &env).unwrap();
                assert_eq!(
                    memo.cost.to_bits(),
                    plain.cost.to_bits(),
                    "pass {pass}: cost differs for {s}"
                );
                assert_eq!(
                    memo.latency.to_bits(),
                    plain.latency.to_bits(),
                    "pass {pass}: latency differs for {s}"
                );
                assert_eq!(
                    memo.reliability.value().to_bits(),
                    plain.reliability.value().to_bits(),
                    "pass {pass}: reliability differs for {s}"
                );
            }
        }
        let (hits, _misses) = est.cache_stats();
        assert!(hits >= 1000, "second pass should be cache hits, got {hits}");
    }

    #[test]
    fn distinct_environments_get_distinct_epochs() {
        let est = Algorithm1::new();
        let env_a = env5();
        let env_b = EnvQos::from_triples(&[(1.0, 10.0, 0.1), (1.0, 90.0, 0.9)]).unwrap();
        let s_a = Strategy::parse("a-b").unwrap();
        let qos_a = est.estimate(&s_a, &env_a).unwrap();
        let qos_b = est.estimate(&s_a, &env_b).unwrap();
        assert_ne!(qos_a, qos_b, "same strategy, different envs");
        assert_eq!(est.estimate(&s_a, &env_a).unwrap(), qos_a);
        assert_eq!(est.estimate(&s_a, &env_b).unwrap(), qos_b);
        assert_eq!(est.cached(), 2);
        est.clear_cache();
        assert_eq!(est.cached(), 0);
    }

    #[test]
    fn estimate_uncached_skips_the_cache() {
        let est = Algorithm1::new();
        let env = env5();
        let s = Strategy::parse("a*b").unwrap();
        let qos = est.estimate_uncached(&s, &env).unwrap();
        assert_eq!(qos, crate::estimate::estimate(&s, &env).unwrap());
        assert_eq!(est.cached(), 0);
    }

    #[test]
    fn folding_matches_free_function() {
        let est = Folding::new();
        let env = env5();
        let s = Strategy::parse("a*b*c").unwrap();
        assert_eq!(
            est.estimate(&s, &env).unwrap(),
            crate::estimate::estimate_folding(&s, &env).unwrap()
        );
        assert!(!est.is_algorithm1());
    }

    #[test]
    fn missing_microservice_propagates() {
        let est = Algorithm1::new();
        let env = EnvQos::from_triples(&[(1.0, 1.0, 0.5)]).unwrap();
        let s = Strategy::parse("a-b").unwrap();
        assert!(est.estimate(&s, &env).is_err());
    }
}
