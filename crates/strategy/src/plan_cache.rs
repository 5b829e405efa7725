//! Cross-slot plan caching for the generator.
//!
//! The gateway re-synthesizes an execution strategy at every slot boundary,
//! but consecutive slots see highly correlated environments: most of the
//! time the collector window moved barely at all, and often it did not move
//! in any way the search can observe. [`PlanCache`] exploits that by
//! memoizing the winning [`Generated`] strategy keyed by the *search
//! inputs* — the id list, the requirements, the utility penalty, the
//! estimator, which search ran (exhaustive, or the beam at which width —
//! different searches can return different winners for identical inputs),
//! and a (configurably quantized) per-microservice QoS vector.
//!
//! ## Key quantization
//!
//! With a quantization step `q > 0`, each environment attribute `x` maps to
//! the cell index `round(x / q)`, so environments within roughly `q/2` of
//! each other share a key and the cached winner is reused even though the
//! inputs are not bit-identical — an approximation the operator opts into,
//! sized by `q`. With `q = 0` (the default) keys use the exact bit patterns
//! of every input: a hit then guarantees the search inputs are identical,
//! so the cached winner is **bit-identical** to what a fresh search would
//! return (the search is deterministic).
//!
//! ## Staleness
//!
//! Entries never expire by time; they are dropped by capacity eviction
//! (least-recently-used) or by [`PlanCache::invalidate`], which the runtime
//! calls when a service script is evicted or replaced or a live override
//! changes the planning requirement. Both paths count into the `stale`
//! statistic so operators can distinguish "the cache is too small /
//! invalidated often" from a plain low hit rate.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::generate::{Generated, Search};
use crate::qos::{EnvQos, MsId, Requirements};

/// How a plan was obtained: from a search, or straight from the
/// [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlanSource {
    /// A full synthesis run with no prior-slot information.
    #[default]
    Cold,
    /// Returned directly from the plan cache without searching.
    Cached,
}

impl fmt::Display for PlanSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanSource::Cold => "cold",
            PlanSource::Cached => "cached",
        })
    }
}

/// Maximum number of cached plans; the least-recently-used entry is
/// evicted past this.
const CAPACITY: usize = 64;

/// Configuration for a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCacheConfig {
    /// Quantization step applied to every environment QoS attribute when
    /// forming cache keys. `0` (the default) keys on exact bit patterns.
    pub quantum: f64,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig { quantum: 0.0 }
    }
}

/// A point-in-time view of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups that returned a cached plan.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries dropped before reuse: capacity evictions plus explicit
    /// invalidations (script eviction/replacement).
    pub stale: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Which search a [`PlanKey`] is for and how it ranks candidates — every
/// key component that is not the id list, the requirements or the
/// environment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SearchId {
    /// Utility penalty `k`.
    pub(crate) penalty: f64,
    /// Estimator identity ([`Estimator::name`](crate::Estimator::name)).
    pub(crate) estimator: &'static str,
    /// The search the door ran (a beam's value carries its width): a
    /// narrow-beam winner must never be served to an exhaustive search.
    pub(crate) search: Search,
}

/// The full identity of a search: any difference in these inputs can
/// change the winner, so all of them key the cache. Built once per search
/// by [`PlanCache::key`] and used for both the lookup and the store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    ids: Vec<MsId>,
    /// `(cost, latency, reliability)` requirement bit patterns.
    req: [u64; 3],
    /// Utility penalty `k` bit pattern.
    penalty: u64,
    estimator: &'static str,
    search: Search,
    /// Quantized `(r, l, c)` cells per microservice (exact bit patterns
    /// when the quantum is zero).
    env: Vec<[i64; 3]>,
}

#[derive(Debug)]
struct Entry {
    stamp: u64,
    generated: Generated,
}

/// A bounded, thread-safe memo of synthesized plans. See the module docs
/// for keying and staleness semantics.
///
/// Construct one, wrap it in an `Arc`, and hand it to
/// [`GeneratorBuilder::plan_cache`](crate::GeneratorBuilder::plan_cache);
/// the generator consults it on every exhaustive search.
#[derive(Debug)]
pub struct PlanCache {
    config: PlanCacheConfig,
    entries: Mutex<HashMap<PlanKey, Entry>>,
    /// Monotone access stamp driving LRU eviction.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache with the given configuration.
    #[must_use]
    pub fn new(config: PlanCacheConfig) -> Self {
        PlanCache {
            config,
            entries: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PlanKey, Entry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A point-in-time snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            entries: self.lock().len(),
        }
    }

    /// Drops every cached plan (the runtime calls this when the service
    /// script backing them is evicted or replaced, or when a live override
    /// changes the planning requirement), counting each into the `stale`
    /// statistic. Returns how many entries were dropped.
    pub fn invalidate(&self) -> usize {
        let mut entries = self.lock();
        let dropped = entries.len();
        entries.clear();
        self.stale.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// The plan memoized under `key`, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: &PlanKey) -> Option<Generated> {
        let mut entries = self.lock();
        match entries.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.generated.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes `generated` under `key`, evicting the least-recently-used
    /// entry at capacity.
    pub(crate) fn store(&self, key: PlanKey, generated: &Generated) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        if entries.len() >= CAPACITY && !entries.contains_key(&key) {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
                self.stale.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.insert(
            key,
            Entry {
                stamp,
                generated: generated.clone(),
            },
        );
    }

    /// Builds the cache key, or `None` when some id has no environment
    /// entry (the generator validates that before calling, but a bare
    /// lookup must not panic).
    pub(crate) fn key(
        &self,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
        search: SearchId,
    ) -> Option<PlanKey> {
        let quantum = self.config.quantum;
        let env = ids
            .iter()
            .map(|&id| {
                env.get(id).map(|q| {
                    [
                        cell(q.reliability.value(), quantum),
                        cell(q.latency, quantum),
                        cell(q.cost, quantum),
                    ]
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(PlanKey {
            ids: ids.to_vec(),
            req: [
                req.cost.to_bits(),
                req.latency.to_bits(),
                req.reliability.value().to_bits(),
            ],
            penalty: search.penalty.to_bits(),
            estimator: search.estimator,
            search: search.search,
            env,
        })
    }
}

/// Maps one QoS attribute value to its plan-cache key cell: the nearest
/// multiple of `quantum`, or the exact bit pattern when `quantum <= 0.0`.
/// Two environments share a cache key exactly when every attribute of every
/// microservice lands in the same cell.
#[must_use]
pub fn cell(value: f64, quantum: f64) -> i64 {
    if quantum > 0.0 {
        // Saturating float→int cast; inputs are validated finite.
        (value / quantum).round() as i64
    } else {
        // Bit pattern as a (bijective) i64 so both modes share a type.
        value.to_bits() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generator;
    use crate::qos::{EnvQos, Requirements};

    const EX: Search = Search::Exhaustive;

    /// The key `cache` files the search these inputs identify under.
    fn key(
        cache: &PlanCache,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
        penalty: f64,
        estimator: &'static str,
        search: Search,
    ) -> PlanKey {
        let id = SearchId {
            penalty,
            estimator,
            search,
        };
        cache.key(env, ids, req, id).expect("env covers ids")
    }

    /// Looks `cache` up under [`key`] of the remaining arguments.
    fn lookup(
        cache: &PlanCache,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
        penalty: f64,
        estimator: &'static str,
        search: Search,
    ) -> Option<Generated> {
        cache.lookup(&key(cache, env, ids, req, penalty, estimator, search))
    }

    /// Stores `generated` in `cache` under [`key`] of the arguments between.
    #[allow(clippy::too_many_arguments)]
    fn store(
        cache: &PlanCache,
        env: &EnvQos,
        ids: &[MsId],
        req: &Requirements,
        penalty: f64,
        estimator: &'static str,
        search: Search,
        generated: &Generated,
    ) {
        let key = key(cache, env, ids, req, penalty, estimator, search);
        cache.store(key, generated);
    }

    fn env(triples: &[(f64, f64, f64)]) -> EnvQos {
        EnvQos::from_triples(triples).unwrap()
    }

    fn req() -> Requirements {
        Requirements::new(100.0, 100.0, 0.9).unwrap()
    }

    fn plan(env: &EnvQos) -> Generated {
        Generator::default()
            .exhaustive(env, &env.ids(), &req())
            .unwrap()
    }

    #[test]
    fn quantum_zero_degenerates_to_exact_match_keys() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let e1 = env(&[(50.0, 50.0, 0.6), (100.0, 100.0, 0.7)]);
        let g = plan(&e1);
        let ids = e1.ids();
        store(&cache, &e1, &ids, &req(), 2.0, "algorithm1", EX, &g);
        assert!(lookup(&cache, &e1, &ids, &req(), 2.0, "algorithm1", EX).is_some());

        // One ulp of drift in a single attribute must miss.
        let mut e2 = e1.clone();
        let mut q = *e2.get(crate::MsId(0)).unwrap();
        q.cost = f64::from_bits(q.cost.to_bits() + 1);
        e2.set(crate::MsId(0), q).unwrap();
        assert!(lookup(&cache, &e2, &ids, &req(), 2.0, "algorithm1", EX).is_none());

        // So must any change to requirements, penalty, or estimator
        // identity.
        let other_req = Requirements::new(100.0, 100.0, 0.91).unwrap();
        assert!(lookup(&cache, &e1, &ids, &other_req, 2.0, "algorithm1", EX).is_none());
        assert!(lookup(&cache, &e1, &ids, &req(), 3.0, "algorithm1", EX).is_none());
        assert!(lookup(&cache, &e1, &ids, &req(), 2.0, "folding", EX).is_none());
        // …or to the search backend: a beam search must never be served
        // the exhaustive winner (or another width's beam winner).
        assert!(lookup(
            &cache,
            &e1,
            &ids,
            &req(),
            2.0,
            "algorithm1",
            Search::Beam(1)
        )
        .is_none());
        assert!(lookup(
            &cache,
            &e1,
            &ids,
            &req(),
            2.0,
            "algorithm1",
            Search::Beam(2)
        )
        .is_none());

        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 6);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn positive_quantum_coalesces_nearby_environments() {
        let cache = PlanCache::new(PlanCacheConfig { quantum: 1.0 });
        let e1 = env(&[(50.0, 50.0, 0.6)]);
        let ids = e1.ids();
        let g = plan(&e1);
        store(&cache, &e1, &ids, &req(), 2.0, "algorithm1", EX, &g);
        // 50.3 rounds into the same 1.0-wide cell as 50.0 …
        let near = env(&[(50.3, 49.8, 0.6)]);
        assert!(lookup(&cache, &near, &ids, &req(), 2.0, "algorithm1", EX).is_some());
        // … but 50.6 does not.
        let far = env(&[(50.6, 50.0, 0.6)]);
        assert!(lookup(&cache, &far, &ids, &req(), 2.0, "algorithm1", EX).is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used_and_counts_stale() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let envs: Vec<EnvQos> = (0..=CAPACITY)
            .map(|i| env(&[(50.0 + i as f64, 50.0, 0.6)]))
            .collect();
        let ids = envs[0].ids();
        let g = plan(&envs[0]);
        for e in &envs[..CAPACITY] {
            store(&cache, e, &ids, &req(), 2.0, "a1", EX, &g);
        }
        assert_eq!(cache.stats().stale, 0, "64 plans fit");
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(lookup(&cache, &envs[0], &ids, &req(), 2.0, "a1", EX).is_some());
        store(&cache, &envs[CAPACITY], &ids, &req(), 2.0, "a1", EX, &g);
        assert!(lookup(&cache, &envs[0], &ids, &req(), 2.0, "a1", EX).is_some());
        assert!(lookup(&cache, &envs[1], &ids, &req(), 2.0, "a1", EX).is_none());
        for e in &envs[2..] {
            assert!(lookup(&cache, e, &ids, &req(), 2.0, "a1", EX).is_some());
        }
        let stats = cache.stats();
        assert_eq!(stats.stale, 1, "one capacity eviction");
        assert_eq!(stats.entries, 64);
    }

    #[test]
    fn invalidate_drops_everything_into_stale() {
        let cache = PlanCache::new(PlanCacheConfig::default());
        let e1 = env(&[(50.0, 50.0, 0.6)]);
        let ids = e1.ids();
        let g = plan(&e1);
        store(&cache, &e1, &ids, &req(), 2.0, "a1", EX, &g);
        assert_eq!(cache.invalidate(), 1);
        assert!(lookup(&cache, &e1, &ids, &req(), 2.0, "a1", EX).is_none());
        let stats = cache.stats();
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn plan_source_display_and_default() {
        assert_eq!(PlanSource::Cold.to_string(), "cold");
        assert_eq!(PlanSource::Cached.to_string(), "cached");
        assert_eq!(PlanSource::default(), PlanSource::Cold);
        let json = serde_json::to_string(&PlanSource::Cached).unwrap();
        let back: PlanSource = serde_json::from_str(&json).unwrap();
        assert_eq!(back, PlanSource::Cached);
        assert!(serde_json::from_str::<PlanSource>("\"WarmStart\"").is_err());
    }
}
