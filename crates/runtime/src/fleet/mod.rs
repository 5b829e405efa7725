//! A sharded gateway fleet behind a consistent-hash service router.
//!
//! One gateway scales to one edge site; a *fleet* is how the paper's
//! design scales past it without giving up QoS consistency. The fleet
//! owns `N` [`Gateway`] shards and routes every request by its service id
//! over a stable hash ring ([`ServiceRouter`]): each service is planned
//! and slot-accounted on exactly one shard (the feedback loop stays
//! coherent), membership changes move only `~1/N` of the services, and
//! two cross-shard amortization channels keep the shards from paying
//! `N×` for shared state:
//!
//! * **scripts** — every shard fronts the one cloud market with its own
//!   read-through [`TtlMarket`] cache, so script updates propagate within
//!   one TTL and repeat fetches stay local;
//! * **providers** — registrations replay onto every shard, so routing a
//!   service elsewhere never strands its devices.
//!
//! Plans are not shared: a shard builds each service's planner exactly as
//! a lone gateway does (one private plan cache per service when
//! [`GatewayConfig::plan_cache`] is on), so invalidation is exact and a
//! service that moves to another shard pays one cold search there — less
//! than a fleet-wide store costs to keep (DESIGN §11).
//!
//! ```
//! use std::sync::Arc;
//! use qce_runtime::fleet::{FleetConfig, GatewayFleet};
//! use qce_runtime::{InMemoryMarket, Market};
//!
//! let backend: Arc<dyn Market> = Arc::new(InMemoryMarket::new());
//! let fleet = GatewayFleet::new(backend, FleetConfig::default());
//! assert_eq!(fleet.stats().shards, 4);
//! ```

mod router;
mod shard;

pub use router::ServiceRouter;
pub use shard::{GatewayShard, ShardStats};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::clock::{Clock, WallClock};
use crate::device::Provider;
use crate::gateway::{Gateway, GatewayConfig, RequestHandle, ServiceResponse};
use crate::market::{Market, MarketCacheStats, TtlMarket};
use crate::message::RuntimeError;
use crate::request::Request;

/// Virtual nodes each shard contributes to the hash ring.
const VNODES: usize = 64;

/// Fleet-level configuration. Construct with `FleetConfig::default()` and
/// override fields; per-shard behaviour is the embedded [`GatewayConfig`].
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Shards spawned at construction.
    pub shards: usize,
    /// Time-to-live of each shard's script cache (`ZERO` = never expire).
    pub script_ttl: Duration,
    /// Configuration applied to every shard's gateway.
    pub gateway: GatewayConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            script_ttl: Duration::from_secs(60),
            gateway: GatewayConfig::default(),
        }
    }
}

/// Generates fluent setters: the struct is `#[non_exhaustive]`, so
/// out-of-crate callers build one as
/// `FleetConfig::default().shards(8).script_ttl(Duration::ZERO)`.
macro_rules! fleet_config_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        impl FleetConfig {
            $(
                $(#[$doc])*
                #[must_use]
                pub fn $field(mut self, $field: $ty) -> Self {
                    self.$field = $field;
                    self
                }
            )*
        }
    };
}

fleet_config_setters! {
    /// Sets the number of shards spawned at construction.
    shards: usize,
    /// Sets the time-to-live of each shard's script cache.
    script_ttl: Duration,
    /// Sets the configuration applied to every shard's gateway.
    gateway: GatewayConfig,
}

/// Aggregate counter snapshot of a fleet, from [`GatewayFleet::stats`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FleetStats {
    /// Current member shards.
    pub shards: usize,
    /// Script-cache counters summed over the member shards.
    pub market: MarketCacheStats,
    /// Per-shard breakdown, ascending by shard id.
    pub per_shard: Vec<ShardStats>,
}

/// `N` gateway shards behind a consistent-hash service router, sharing
/// one market backend. See the [module docs](self) for the design.
pub struct GatewayFleet {
    config: FleetConfig,
    clock: Arc<dyn Clock>,
    backend: Arc<dyn Market>,
    router: RwLock<ServiceRouter>,
    shards: RwLock<BTreeMap<u32, Arc<GatewayShard>>>,
    next_shard: AtomicU32,
    /// Every provider ever registered, replayed onto shards that join
    /// later so rebalanced services find their devices.
    providers: Mutex<Vec<Arc<dyn Provider>>>,
}

impl std::fmt::Debug for GatewayFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayFleet")
            .field("config", &self.config)
            .field("shards", &self.shard_ids())
            .finish_non_exhaustive()
    }
}

impl GatewayFleet {
    /// Creates a fleet of [`FleetConfig::shards`] gateways over `backend`,
    /// running on real time.
    #[must_use]
    pub fn new(backend: Arc<dyn Market>, config: FleetConfig) -> Self {
        GatewayFleet::with_clock(backend, config, Arc::new(WallClock::new()))
    }

    /// As [`GatewayFleet::new`], but every shard, script cache, and
    /// provider latency runs on `clock` — pass a shared
    /// [`VirtualClock`](crate::VirtualClock) for deterministic tests and
    /// benches.
    #[must_use]
    pub fn with_clock(
        backend: Arc<dyn Market>,
        config: FleetConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let fleet = GatewayFleet {
            config,
            clock,
            backend,
            router: RwLock::new(ServiceRouter::new(VNODES)),
            shards: RwLock::new(BTreeMap::new()),
            next_shard: AtomicU32::new(0),
            providers: Mutex::new(Vec::new()),
        };
        for _ in 0..config.shards {
            fleet.add_shard();
        }
        fleet
    }

    /// Spawns one more shard, replays every known provider onto it, and
    /// adds it to the ring (moving `~1/N` of the services to it). Returns
    /// the new shard's id. Services moving here re-fetch their script
    /// through this shard's cache and re-plan cold, once.
    pub fn add_shard(&self) -> u32 {
        let id = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let market = Arc::new(TtlMarket::new(
            Arc::clone(&self.backend),
            self.config.script_ttl,
            Arc::clone(&self.clock),
        ));
        let gateway = Arc::new(Gateway::with_clock(
            Box::new(Arc::clone(&market)),
            self.config.gateway,
            Arc::clone(&self.clock),
        ));
        for provider in self.providers.lock().iter() {
            gateway.registry().register(Arc::clone(provider));
        }
        let shard = Arc::new(GatewayShard {
            id,
            gateway,
            market,
        });
        // Insert the shard before publishing it on the ring so a racing
        // `submit` never routes to an id it cannot resolve.
        self.shards.write().insert(id, shard);
        self.router.write().add_shard(id);
        id
    }

    /// Evicts a shard: removes it from the ring (its services
    /// redistribute over the survivors) and drops the fleet's handle to
    /// its gateway. In-flight requests on the evicted shard resolve
    /// normally — the gateway shuts down only once the last outstanding
    /// handle lets go of it. Returns `false` if `id` is not a member.
    pub fn remove_shard(&self, id: u32) -> bool {
        // Unpublish from the ring first: a racing `submit` must not route
        // a fresh request to a shard mid-teardown.
        let routed = self.router.write().remove_shard(id);
        let shard = self.shards.write().remove(&id);
        routed && shard.is_some()
    }

    /// Registers a provider on every current shard and remembers it for
    /// shards that join later.
    pub fn register(&self, provider: Arc<dyn Provider>) {
        self.providers.lock().push(Arc::clone(&provider));
        for shard in self.shards.read().values() {
            shard.gateway.registry().register(Arc::clone(&provider));
        }
    }

    /// The shard currently owning `service_id`, or `None` on an empty
    /// fleet.
    #[must_use]
    pub fn route(&self, service_id: &str) -> Option<u32> {
        self.router.read().route(service_id)
    }

    /// The shard with this id, if it is a member.
    #[must_use]
    pub fn shard(&self, id: u32) -> Option<Arc<GatewayShard>> {
        self.shards.read().get(&id).cloned()
    }

    /// Member shard ids, ascending.
    #[must_use]
    pub fn shard_ids(&self) -> Vec<u32> {
        self.shards.read().keys().copied().collect()
    }

    /// Member shards, ascending by id.
    #[must_use]
    pub fn shards(&self) -> Vec<Arc<GatewayShard>> {
        self.shards.read().values().cloned().collect()
    }

    /// The fleet's shared clock.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Routes `request` to its service's shard and submits it, blocking
    /// until the response.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Market`] when the fleet has no shards; otherwise as
    /// [`Gateway::submit`].
    pub fn submit(&self, request: Request) -> Result<ServiceResponse, RuntimeError> {
        self.owner(request.service())?.gateway.submit(request)
    }

    /// Routes `request` to its service's shard and submits it
    /// asynchronously.
    ///
    /// # Errors
    ///
    /// As [`GatewayFleet::submit`].
    pub fn submit_async(&self, request: Request) -> Result<RequestHandle, RuntimeError> {
        self.owner(request.service())?.gateway.submit_async(request)
    }

    /// Force-closes the service's current time slot on its owning shard
    /// (no-op on an empty fleet or an unknown service).
    pub fn end_slot(&self, service_id: &str) {
        if let Ok(shard) = self.owner(service_id) {
            shard.gateway.end_slot(service_id);
        }
    }

    /// Aggregate counters: summed script-cache economics and the per-shard
    /// breakdown.
    #[must_use]
    pub fn stats(&self) -> FleetStats {
        let per_shard: Vec<ShardStats> = self
            .shards
            .read()
            .values()
            .map(|shard| shard.stats())
            .collect();
        let market = per_shard
            .iter()
            .fold(MarketCacheStats::default(), |sum, s| MarketCacheStats {
                hits: sum.hits + s.market.hits,
                misses: sum.misses + s.market.misses,
                expired: sum.expired + s.market.expired,
            });
        FleetStats {
            shards: per_shard.len(),
            market,
            per_shard,
        }
    }

    fn owner(&self, service_id: &str) -> Result<Arc<GatewayShard>, RuntimeError> {
        let id = self
            .router
            .read()
            .route(service_id)
            .ok_or_else(|| RuntimeError::Market {
                reason: "fleet has no shards".to_string(),
            })?;
        self.shard(id).ok_or_else(|| RuntimeError::Market {
            reason: format!("shard {id} left the fleet mid-route"),
        })
    }
}
