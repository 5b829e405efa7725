//! The cloud-based service market (paper Section IV.A).
//!
//! Gateways download self-describing service scripts from a market and
//! cache them locally, so that "if a recently executed service is invoked
//! again, the request can be processed entirely within the edge's local
//! environment, without needing to interact with the cloud."

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::clock::{Clock, WallClock};
use crate::message::RuntimeError;
use crate::script::ServiceScript;

/// A source of service scripts.
pub trait Market: Send + Sync {
    /// Fetches the script for `service_id`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownService`] when the market has no such
    /// script, or [`RuntimeError::Market`] on transport problems.
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError>;

    /// Lists the available service ids (diagnostic use).
    fn service_ids(&self) -> Vec<String>;
}

impl std::fmt::Debug for dyn Market {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Market")
            .field("services", &self.service_ids())
            .finish()
    }
}

/// A shared market handle is itself a market — this is what lets one
/// cloud-backed market sit behind many gateway shards (each shard's
/// [`TtlMarket`] keeps an `Arc` to the common backend), and what lets a
/// fleet hand each [`Gateway`](crate::Gateway) a `Box<dyn Market>` view of
/// a [`TtlMarket`] it still holds for stats.
impl<M: Market + ?Sized> Market for Arc<M> {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        (**self).fetch(service_id)
    }

    fn service_ids(&self) -> Vec<String> {
        (**self).service_ids()
    }
}

/// An in-memory market, optionally with an artificial fetch latency to
/// emulate the cloud round-trip.
///
/// # Examples
///
/// ```
/// use qce_runtime::{InMemoryMarket, Market, MsSpec, ServiceScript};
/// use qce_strategy::{Qos, Requirements};
///
/// let script = ServiceScript::new(
///     "svc",
///     vec![MsSpec {
///         name: "m".into(),
///         capability: "cap".into(),
///         prior: Qos::new(1.0, 1.0, 0.9)?,
///     }],
///     Requirements::new(10.0, 10.0, 0.5)?,
/// );
/// let market = InMemoryMarket::new();
/// market.publish(script.clone())?;
/// assert_eq!(market.fetch("svc")?, script);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct InMemoryMarket {
    scripts: RwLock<HashMap<String, ServiceScript>>,
    fetch_latency: Duration,
    fetches: AtomicU64,
    clock: Arc<dyn Clock>,
}

impl Default for InMemoryMarket {
    fn default() -> Self {
        InMemoryMarket {
            scripts: RwLock::new(HashMap::new()),
            fetch_latency: Duration::ZERO,
            fetches: AtomicU64::new(0),
            clock: Arc::new(WallClock::new()),
        }
    }
}

impl InMemoryMarket {
    /// Creates an empty market with no artificial latency.
    #[must_use]
    pub fn new() -> Self {
        InMemoryMarket::default()
    }

    /// Creates a market whose fetches block for `latency`, emulating the
    /// cloud round-trip that local caching avoids.
    #[must_use]
    pub fn with_latency(latency: Duration) -> Self {
        InMemoryMarket {
            fetch_latency: latency,
            ..InMemoryMarket::default()
        }
    }

    /// Publishes (or replaces) a script.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] if the script fails
    /// validation.
    pub fn publish(&self, script: ServiceScript) -> Result<(), RuntimeError> {
        script.validate()?;
        self.scripts
            .write()
            .insert(script.service_id.clone(), script);
        Ok(())
    }

    /// Number of fetches served so far.
    #[must_use]
    pub fn fetch_count(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl Market for InMemoryMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        // Resolve first: only a fetch that actually downloads a script pays
        // the cloud round-trip (an unknown id is answered from the market's
        // index without shipping anything), and the latency must never
        // block the caller beyond the configured clock's time.
        let script = self
            .scripts
            .read()
            .get(service_id)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownService {
                service_id: service_id.to_string(),
            })?;
        if !self.fetch_latency.is_zero() {
            self.clock.sleep(self.fetch_latency);
        }
        self.fetches.fetch_add(1, Ordering::Relaxed);
        Ok(script)
    }

    fn service_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.scripts.read().keys().cloned().collect();
        ids.sort();
        ids
    }
}

/// A market backed by a directory of `<service_id>.json` script files —
/// the self-describing scripts a real deployment would host.
#[derive(Debug)]
pub struct FileMarket {
    root: PathBuf,
}

impl FileMarket {
    /// Creates a market rooted at `dir` (created on publish if missing).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileMarket { root: dir.into() }
    }

    /// Writes a script to `<root>/<service_id>.json`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] if validation fails or
    /// [`RuntimeError::Market`] on I/O problems.
    pub fn publish(&self, script: &ServiceScript) -> Result<(), RuntimeError> {
        script.validate()?;
        std::fs::create_dir_all(&self.root).map_err(|e| RuntimeError::Market {
            reason: e.to_string(),
        })?;
        let path = self.root.join(format!("{}.json", script.service_id));
        std::fs::write(&path, script.to_json()).map_err(|e| RuntimeError::Market {
            reason: e.to_string(),
        })
    }
}

impl Market for FileMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        let path = self.root.join(format!("{service_id}.json"));
        let json = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                RuntimeError::UnknownService {
                    service_id: service_id.to_string(),
                }
            } else {
                RuntimeError::Market {
                    reason: e.to_string(),
                }
            }
        })?;
        ServiceScript::from_json(&json)
    }

    fn service_ids(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                name.strip_suffix(".json").map(str::to_string)
            })
            .collect();
        ids.sort();
        ids
    }
}

/// Counter snapshot of a [`TtlMarket`]'s script cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarketCacheStats {
    /// Fetches served from a fresh local copy (no cloud round-trip).
    pub hits: u64,
    /// Fetches for scripts the cache had never seen (went to the backend).
    pub misses: u64,
    /// Fetches that found a local copy *older than the TTL* and re-fetched
    /// it from the backend (disjoint from both `hits` and `misses`).
    pub expired: u64,
}

/// A read-through script cache with time-to-live invalidation over a
/// *shared* backing market — the per-shard market front of a gateway
/// fleet.
///
/// `TtlMarket` (a) holds the backend by `Arc`, so N shards can front the
/// same cloud market with independent caches, and (b) stamps every cached
/// script with the fetch instant on a [`Clock`]: a copy older than the TTL
/// is re-fetched, so market-side script updates propagate to every shard
/// within one TTL without any invalidation broadcast. A zero TTL never
/// expires.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use qce_runtime::{InMemoryMarket, Market, MsSpec, ServiceScript, TtlMarket, VirtualClock};
/// use qce_strategy::{Qos, Requirements};
///
/// let clock = Arc::new(VirtualClock::new());
/// let backend: Arc<dyn Market> = Arc::new({
///     let m = InMemoryMarket::new();
///     m.publish(ServiceScript::new(
///         "svc",
///         vec![MsSpec {
///             name: "m".into(),
///             capability: "cap".into(),
///             prior: Qos::new(1.0, 1.0, 0.9)?,
///         }],
///         Requirements::new(10.0, 10.0, 0.5)?,
///     ))?;
///     m
/// });
/// let front = TtlMarket::new(
///     Arc::clone(&backend),
///     Duration::from_secs(60),
///     clock.clone() as Arc<dyn qce_runtime::Clock>,
/// );
/// front.fetch("svc")?; // miss: goes to the backend
/// front.fetch("svc")?; // hit: served locally
/// clock.advance(Duration::from_secs(61));
/// front.fetch("svc")?; // expired: re-fetched from the backend
/// assert_eq!(front.cache_stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TtlMarket {
    backend: Arc<dyn Market>,
    ttl: Duration,
    clock: Arc<dyn Clock>,
    cache: RwLock<HashMap<String, (Duration, ServiceScript)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
}

impl TtlMarket {
    /// Fronts `backend` with an empty cache whose entries stay fresh for
    /// `ttl` on `clock` (`Duration::ZERO` = never expire).
    #[must_use]
    pub fn new(backend: Arc<dyn Market>, ttl: Duration, clock: Arc<dyn Clock>) -> Self {
        TtlMarket {
            backend,
            ttl,
            clock,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// The configured time-to-live.
    #[must_use]
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Counter snapshot: hits, misses, and TTL expiries so far.
    #[must_use]
    pub fn cache_stats(&self) -> MarketCacheStats {
        MarketCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached script immediately, regardless of age.
    pub fn invalidate(&self) {
        self.cache.write().clear();
    }

    fn fresh(&self, stamp: Duration, now: Duration) -> bool {
        self.ttl.is_zero() || now.saturating_sub(stamp) < self.ttl
    }
}

impl Market for TtlMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        let now = self.clock.now();
        let had_stale = {
            let cache = self.cache.read();
            match cache.get(service_id) {
                Some((stamp, script)) if self.fresh(*stamp, now) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(script.clone());
                }
                Some(_) => true,
                None => false,
            }
        };
        if had_stale {
            self.expired.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let script = self.backend.fetch(service_id)?;
        // Stamp with the post-fetch instant: the backend round-trip may
        // have advanced the clock, and freshness is measured from when the
        // copy was *obtained*.
        self.cache
            .write()
            .insert(service_id.to_string(), (self.clock.now(), script.clone()));
        Ok(script)
    }

    fn service_ids(&self) -> Vec<String> {
        self.backend.service_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::MsSpec;
    use qce_strategy::{Qos, Requirements};

    fn script(id: &str) -> ServiceScript {
        ServiceScript::new(
            id,
            vec![MsSpec {
                name: "m".to_string(),
                capability: "cap".to_string(),
                prior: Qos::new(1.0, 1.0, 0.9).unwrap(),
            }],
            Requirements::new(10.0, 10.0, 0.5).unwrap(),
        )
    }

    #[test]
    fn in_memory_publish_and_fetch() {
        let market = InMemoryMarket::new();
        market.publish(script("a")).unwrap();
        market.publish(script("b")).unwrap();
        assert_eq!(market.fetch("a").unwrap().service_id, "a");
        assert_eq!(market.fetch("b").unwrap().service_id, "b");
        assert_eq!(market.service_ids(), vec!["a".to_string(), "b".to_string()]);
        assert!(matches!(
            market.fetch("zzz"),
            Err(RuntimeError::UnknownService { .. })
        ));
        assert_eq!(market.fetch_count(), 2, "failed fetches are not counted");
    }

    #[test]
    fn in_memory_rejects_invalid_scripts() {
        let market = InMemoryMarket::new();
        let mut bad = script("a");
        bad.slot_size = 0;
        assert!(market.publish(bad).is_err());
    }

    #[test]
    fn fetch_latency_is_applied() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let market = InMemoryMarket {
            fetch_latency: Duration::from_millis(20),
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..InMemoryMarket::default()
        };
        market.publish(script("a")).unwrap();
        market.fetch("a").unwrap();
        assert_eq!(clock.now(), Duration::from_millis(20));
    }

    #[test]
    fn unknown_service_does_not_pay_the_round_trip() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let market = InMemoryMarket {
            fetch_latency: Duration::from_millis(20),
            clock: Arc::clone(&clock) as Arc<dyn Clock>,
            ..InMemoryMarket::default()
        };
        assert!(market.fetch("nope").is_err());
        assert_eq!(clock.now(), Duration::ZERO, "no script, no round-trip");
        assert_eq!(market.fetch_count(), 0);
    }

    #[test]
    fn file_market_round_trip() {
        let dir = std::env::temp_dir().join(format!("qce-market-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let market = FileMarket::new(&dir);
        market.publish(&script("filed")).unwrap();
        let fetched = market.fetch("filed").unwrap();
        assert_eq!(fetched.service_id, "filed");
        assert_eq!(market.service_ids(), vec!["filed".to_string()]);
        assert!(matches!(
            market.fetch("absent"),
            Err(RuntimeError::UnknownService { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_market_empty_dir_lists_nothing() {
        let market = FileMarket::new("/nonexistent/qce-market");
        assert!(market.service_ids().is_empty());
    }

    #[test]
    fn caching_market_propagates_errors_without_caching_them() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let inner = Arc::new(InMemoryMarket::new());
        let caching = TtlMarket::new(
            Arc::clone(&inner) as Arc<dyn Market>,
            Duration::ZERO,
            clock as Arc<dyn Clock>,
        );
        assert!(caching.fetch("nope").is_err());
        assert!(caching.fetch("nope").is_err());
        assert_eq!(
            caching.cache_stats(),
            MarketCacheStats {
                hits: 0,
                misses: 2,
                expired: 0
            }
        );
        // A failure left no entry: once published, the script is fetched.
        inner.publish(script("nope")).unwrap();
        assert_eq!(caching.fetch("nope").unwrap().service_id, "nope");
    }

    #[test]
    fn ttl_market_hits_until_expiry_then_refetches() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let inner = InMemoryMarket::new();
        inner.publish(script("a")).unwrap();
        let backend: Arc<dyn Market> = Arc::new(inner);
        let front = TtlMarket::new(
            Arc::clone(&backend),
            Duration::from_secs(30),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        front.fetch("a").unwrap();
        front.fetch("a").unwrap();
        front.fetch("a").unwrap();
        assert_eq!(
            front.cache_stats(),
            MarketCacheStats {
                hits: 2,
                misses: 1,
                expired: 0
            }
        );
        clock.advance(Duration::from_secs(29));
        front.fetch("a").unwrap();
        clock.advance(Duration::from_secs(1));
        front.fetch("a").unwrap();
        assert_eq!(
            front.cache_stats(),
            MarketCacheStats {
                hits: 3,
                misses: 1,
                expired: 1
            },
            "a copy exactly TTL old is stale"
        );
    }

    #[test]
    fn ttl_market_zero_ttl_never_expires_and_invalidate_clears() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let inner = InMemoryMarket::new();
        inner.publish(script("a")).unwrap();
        let backend: Arc<dyn Market> = Arc::new(inner);
        let front = TtlMarket::new(
            Arc::clone(&backend),
            Duration::ZERO,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        front.fetch("a").unwrap();
        clock.advance(Duration::from_secs(3600));
        front.fetch("a").unwrap();
        assert_eq!(front.cache_stats().hits, 1);
        front.invalidate();
        front.fetch("a").unwrap();
        assert_eq!(front.cache_stats().misses, 2);
    }

    #[test]
    fn ttl_market_shards_front_one_backend_independently() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let inner = InMemoryMarket::new();
        inner.publish(script("a")).unwrap();
        let backend: Arc<dyn Market> = Arc::new(inner);
        let shard0 = TtlMarket::new(
            Arc::clone(&backend),
            Duration::from_secs(30),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let shard1 = TtlMarket::new(
            Arc::clone(&backend),
            Duration::from_secs(30),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        shard0.fetch("a").unwrap();
        shard0.fetch("a").unwrap();
        shard1.fetch("a").unwrap();
        assert_eq!(shard0.cache_stats().hits, 1);
        assert_eq!(
            shard1.cache_stats(),
            MarketCacheStats {
                hits: 0,
                misses: 1,
                expired: 0
            },
            "shard caches are independent"
        );
    }

    #[test]
    fn ttl_market_propagates_unknown_service_without_caching() {
        let clock = Arc::new(crate::clock::VirtualClock::new());
        let backend: Arc<dyn Market> = Arc::new(InMemoryMarket::new());
        let front = TtlMarket::new(
            backend,
            Duration::ZERO,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        assert!(front.fetch("nope").is_err());
        assert!(front.fetch("nope").is_err());
        assert_eq!(front.cache_stats().misses, 2);
    }

    #[test]
    fn arc_market_is_a_market() {
        let inner = InMemoryMarket::new();
        inner.publish(script("a")).unwrap();
        let shared: Arc<dyn Market> = Arc::new(inner);
        let boxed: Box<dyn Market> = Box::new(Arc::clone(&shared));
        assert_eq!(boxed.fetch("a").unwrap().service_id, "a");
        assert_eq!(boxed.service_ids(), vec!["a".to_string()]);
    }

    #[test]
    fn market_trait_object_debug() {
        let market = InMemoryMarket::new();
        market.publish(script("a")).unwrap();
        let obj: &dyn Market = &market;
        assert!(format!("{obj:?}").contains('a'));
    }
}
