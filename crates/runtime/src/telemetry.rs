//! Runtime telemetry: lock-cheap counters, latency/cost histograms, and a
//! bounded ring of structured events.
//!
//! The paper's feedback loop (Section IV.B) is only trustworthy if its
//! adaptation is *observable*: which strategy served each slot, what the
//! generator searched, which providers failed, where the time went. The
//! [`Telemetry`] subsystem answers those questions without slowing the hot
//! path down:
//!
//! * **Counters and histograms** are plain atomics, updated with relaxed
//!   stores on every request/invocation — no lock is held while a provider
//!   executes. Each counter is a key into a scope's cell array; a scope
//!   is one service, one of its classes, one provider, or the hub. The
//!   service and provider handles enter the maps (and so the snapshots)
//!   on their first record. The request path resolves each handle once —
//!   a gateway service entry its service's, a slot plan one per provider,
//!   on the first leg that records — and counts through it without a map
//!   lock or a hash; the by-name [`Telemetry::record_request`] is a
//!   lookup into the same handle. A histogram's observation count is the
//!   sum of its buckets.
//! * **Events** ([`TelemetryEvent`]) are rare (slot boundaries, failures)
//!   and enter through one door, [`Telemetry::record`], which moves the
//!   event's counter and then emits it through a short mutex into a
//!   bounded ring; when the ring is full the oldest event is dropped and
//!   counted, never blocking the emitter.
//! * **Snapshots** ([`Telemetry::snapshot`]) copy everything into a plain
//!   serde-serializable [`MetricsSnapshot`] — sorted `Vec`s, not maps — so
//!   dumps are deterministic and diffable.
//!
//! All timestamps come from the shared [`Clock`], so a virtual-time test
//! can assert *exact* telemetry values.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use qce_strategy::{PlanCacheStats, PlanSource, SynthesisReport};

use crate::clock::Clock;
use crate::message::RuntimeError;
use crate::request::{QosClass, CLASS_COUNT};

/// Upper bucket edges of the latency histograms, in microseconds
/// (1 ms … 1 s; slower invocations land in the overflow bucket).
const LATENCY_EDGES_US: [u64; 10] = [
    1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
];

/// Upper bucket edges of the cost histograms, in milli-cost-units
/// (cost 10 … 2000).
const COST_EDGES_MILLI: [u64; 8] = [
    10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000, 2_000_000,
];

/// A fixed-bucket histogram over `u64` raw units (microseconds or
/// milli-cost), updated with relaxed atomics. Its observation count is not
/// kept apart: every observation lands in exactly one bucket or the
/// overflow, so the snapshot sums them.
struct Histogram {
    edges: &'static [u64],
    buckets: Box<[AtomicU64]>,
    overflow: AtomicU64,
    /// Sum of raw units (microseconds / milli-cost).
    sum: AtomicU64,
}

impl Histogram {
    fn new(edges: &'static [u64]) -> Self {
        Histogram {
            edges,
            buckets: edges.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, raw: u64) {
        // Saturate, don't wrap: `micros` clamps out-of-range durations to
        // `u64::MAX`, and a single such observation through `fetch_add`
        // would wrap the running sum around to garbage. The sample itself
        // still lands in the overflow bucket below.
        self.sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(raw))
            })
            .ok();
        match self.edges.iter().position(|&edge| raw <= edge) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Snapshot with raw units divided by `unit` (e.g. 1000.0 to render
    /// microseconds as milliseconds).
    fn snapshot(&self, unit: f64) -> HistogramSnapshot {
        let buckets: Vec<HistogramBucket> = self
            .edges
            .iter()
            .zip(self.buckets.iter())
            .map(|(&edge, bucket)| HistogramBucket {
                le: to_f64(edge) / unit,
                count: bucket.load(Ordering::Relaxed),
            })
            .collect();
        let overflow = self.overflow.load(Ordering::Relaxed);
        HistogramSnapshot {
            count: buckets.iter().map(|b| b.count).sum::<u64>() + overflow,
            sum: to_f64(self.sum.load(Ordering::Relaxed)) / unit,
            overflow,
            buckets,
        }
    }
}

/// Lossless for every value a histogram can realistically accumulate
/// (below 2^53 raw units).
#[allow(clippy::cast_precision_loss)]
fn to_f64(raw: u64) -> f64 {
    raw as f64
}

fn micros(duration: Duration) -> u64 {
    u64::try_from(duration.as_micros()).unwrap_or(u64::MAX)
}

fn milli_cost(cost: f64) -> u64 {
    if cost.is_finite() && cost > 0.0 {
        // In-range by the guard; fractional milli-cost rounds down.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (cost * 1000.0).min(to_f64(u64::MAX)) as u64
        }
    } else {
        0
    }
}

/// Every counter the hub keeps, each named once. A [`Scope`] holds one
/// cell per key; each snapshot type reads the keys it reports, and its
/// fields say what they count.
#[derive(Clone, Copy)]
enum Key {
    /// Requests served (a service or class scope) or invocations run (a
    /// provider scope).
    Requests,
    Successes,
    Advisories,
    VotesCast,
    VotesAgreed,
    Replans,
    PlansCold,
    PlansCached,
    PlanCacheHits,
    PlanCacheMisses,
    PlanCacheStale,
    StrategySwitches,
    DriftReplans,
    DriftHolds,
    PlanFailures,
    HistoryEvicted,
    Shed,
    DeadlineExceeded,
    QueueDepth,
    QueuePeak,
    CandidatesSeen,
    CandidatesPruned,
    SynthesisMicros,
    Overrides,
    FaultWindowHits,
    Departures,
    Rejoins,
    MarketFetches,
    MarketFetchFailures,
    MarketFetchMicros,
    StormOnsets,
    StormRecoveries,
    EngineInFlight,
    EngineFrames,
    EngineFramesPeak,
}

const KEYS: usize = Key::EngineFramesPeak as usize + 1;

/// One scope's counters (all relaxed atomics): a cell per [`Key`] plus
/// the latency and cost histograms. A service, each of its classes, each
/// provider and the hub itself are one scope each. A provider's is the
/// handle [`Telemetry::provider_metrics`] hands out, which a slot plan's
/// leg sinks and a [`FaultyProvider`](crate::FaultyProvider) resolve once
/// and count through.
pub(crate) struct Scope {
    cells: [AtomicU64; KEYS],
    latency: Histogram,
    cost: Histogram,
}

impl Scope {
    fn new() -> Self {
        Scope {
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: Histogram::new(&LATENCY_EDGES_US),
            cost: Histogram::new(&COST_EDGES_MILLI),
        }
    }

    /// Adds `n` to `key`, returning the new value.
    fn add(&self, key: Key, n: u64) -> u64 {
        self.cells[key as usize]
            .fetch_add(n, Ordering::Relaxed)
            .wrapping_add(n)
    }

    fn sub(&self, key: Key, n: u64) {
        self.cells[key as usize].fetch_sub(n, Ordering::Relaxed);
    }

    fn set(&self, key: Key, value: u64) {
        self.cells[key as usize].store(value, Ordering::Relaxed);
    }

    /// Raises the high-water mark `key` to `value`.
    fn peak(&self, key: Key, value: u64) {
        self.cells[key as usize].fetch_max(value, Ordering::Relaxed);
    }

    fn get(&self, key: Key) -> u64 {
        self.cells[key as usize].load(Ordering::Relaxed)
    }

    /// Counts one microservice invocation on the provider.
    pub(crate) fn count_invocation(&self, success: bool, latency: Duration, cost: f64) {
        self.add(Key::Requests, 1);
        if success {
            self.add(Key::Successes, 1);
        }
        self.latency.record(micros(latency));
        self.cost.record(milli_cost(cost));
    }

    /// Counts one invocation landing inside an active fault window.
    pub(crate) fn count_fault_window(&self) {
        self.add(Key::FaultWindowHits, 1);
    }
}

/// One service's counters: the handle [`Telemetry::service_metrics`]
/// hands out, which the gateway's service entry resolves once and counts
/// every finished request and admission-queue change through.
pub(crate) struct ServiceMetrics {
    all: Scope,
    /// Per-class breakout, indexed by [`QosClass::index`].
    classes: [Scope; CLASS_COUNT],
    /// Strategy text of the last planned slot, for switch detection.
    last_strategy: Mutex<Option<String>>,
}

impl ServiceMetrics {
    fn new() -> Self {
        ServiceMetrics {
            all: Scope::new(),
            classes: std::array::from_fn(|_| Scope::new()),
            last_strategy: Mutex::new(None),
        }
    }

    fn class(&self, class: QosClass) -> &Scope {
        &self.classes[class.index()]
    }

    /// Counts one completed service request, attributed to its traffic
    /// class (see [`Telemetry::record_request`]).
    pub(crate) fn count_request(
        &self,
        class: QosClass,
        success: bool,
        latency: Duration,
        cost: f64,
        advisory: bool,
        votes: Option<(usize, usize)>,
    ) {
        for scope in [&self.all, self.class(class)] {
            scope.add(Key::Requests, 1);
            if success {
                scope.add(Key::Successes, 1);
            }
            scope.latency.record(micros(latency));
        }
        if advisory {
            self.all.add(Key::Advisories, 1);
        }
        if let Some((agreed, cast)) = votes {
            self.all.add(Key::VotesAgreed, agreed as u64);
            self.all.add(Key::VotesCast, cast as u64);
        }
        self.all.cost.record(milli_cost(cost));
    }

    /// Sets the admission-queue gauges after `class`'s queue changed: the
    /// service's total depth and the class's own, each with its
    /// high-water mark.
    pub(crate) fn count_queue_depth(&self, class: QosClass, class_depth: u64, total: u64) {
        for (scope, depth) in [(&self.all, total), (self.class(class), class_depth)] {
            scope.set(Key::QueueDepth, depth);
            scope.peak(Key::QueuePeak, depth);
        }
    }
}

/// A structured, timestamped telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryEvent {
    /// Monotonic sequence number (counts every emitted event, including
    /// ones since evicted from the ring).
    pub seq: u64,
    /// Clock time of emission.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// The event payloads recorded by the runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A slot boundary re-planned a service's strategy. The synthesis
    /// counters come from the generator's [`SynthesisReport`] and are zero
    /// for the default (slot 0) strategy, which is not searched.
    SlotReplanned {
        /// Service id.
        service: String,
        /// Zero-based slot the plan serves.
        slot: u64,
        /// How the strategy was chosen (`default` / `generated(..)`).
        origin: String,
        /// The strategy, rendered with script microservice names.
        strategy: String,
        /// Candidates whose QoS the generator estimated.
        candidates_seen: u64,
        /// Candidates skipped by branch-and-bound pruning.
        candidates_pruned: u64,
        /// Time the generation call took.
        elapsed: Duration,
        /// How the plan was obtained (a search or a plan-cache hit);
        /// `None` for the unsearched default strategy.
        #[serde(default)]
        source: Option<PlanSource>,
    },
    /// A drift-triggered re-plan fired: at a slot boundary with
    /// `replan_on_drift` enabled, the collector's QoS table left the
    /// quantization band of the active plan's assumed table, so the
    /// gateway re-planned instead of holding the plan.
    ReplanTriggered {
        /// Service id.
        service: String,
        /// Slot the re-plan will serve.
        slot: u64,
        /// Fraction of (microservice, attribute) quantized cells that
        /// differ between the active plan's assumed QoS table and the
        /// current one (`(0, 1]` — zero-drift boundaries hold the plan
        /// and emit no event).
        drift: f64,
    },
    /// A re-plan chose a different strategy than the previous slot's.
    StrategySwitched {
        /// Service id.
        service: String,
        /// Slot of the new strategy.
        slot: u64,
        /// The previous slot's strategy text.
        from: String,
        /// The new strategy text.
        to: String,
    },
    /// Planning a slot failed (the slot stays unplanned and the next
    /// invocation retries).
    PlanFailed {
        /// Service id.
        service: String,
        /// Slot that could not be planned.
        slot: u64,
        /// The error, rendered.
        reason: String,
    },
    /// Planning failed because a capability has no registered provider.
    ProviderResolutionFailed {
        /// Service id.
        service: String,
        /// Slot that could not be planned.
        slot: u64,
        /// The capability with no provider.
        capability: String,
    },
    /// An invocation landed inside an active fault window of a
    /// [`FaultyProvider`](crate::FaultyProvider). Emitted by the first
    /// invocation to land in each window;
    /// [`ProviderSnapshot::fault_window_hits`] counts them all.
    FaultWindowHit {
        /// Provider id.
        provider: String,
        /// The fault in force (`crash` / `latency` / `byzantine`).
        fault: String,
    },
    /// The gateway's admission layer shed a request: the service was at
    /// its in-flight limit and the admission queue was full (or a higher
    /// class preempted the request's queue slot).
    RequestShed {
        /// Service id.
        service: String,
        /// Traffic class of the shed request (pre-class events
        /// deserialize as [`QosClass::Interactive`]).
        #[serde(default)]
        class: QosClass,
        /// Requests executing when the shed happened.
        in_flight: u64,
        /// Requests waiting in the admission queue when the shed happened.
        queued: u64,
    },
    /// A request's deadline expired mid-execution; its remaining legs were
    /// pruned (in-flight legs ran to completion per Assumption 2).
    DeadlineExceeded {
        /// Service id.
        service: String,
        /// The request whose deadline expired.
        request_id: u64,
        /// Traffic class of the request (pre-class events deserialize as
        /// [`QosClass::Interactive`]).
        #[serde(default)]
        class: QosClass,
    },
    /// A live override was applied through the gateway's control handle
    /// ([`Gateway::control`](crate::Gateway::control)): exactly one event
    /// per applied override.
    OverrideApplied {
        /// Service the override retunes.
        service: String,
        /// Which knob was overridden (`class` / `deadline` /
        /// `requirement`).
        field: String,
        /// The new value, rendered (`"none"` for a cleared override).
        value: String,
    },
    /// A correlated-failure storm began: every provider in the named
    /// failure domain crashed at once (scenario replay marker).
    StormOnset {
        /// Failure-domain name (e.g. the shared radio link).
        storm: String,
        /// Providers taken down together.
        providers: Vec<String>,
    },
    /// A correlated-failure storm ended; its providers are reachable
    /// again. Adaptation lag is measured from this marker.
    StormRecovered {
        /// Failure-domain name.
        storm: String,
        /// Providers restored together.
        providers: Vec<String>,
    },
    /// A provider left the environment mid-run (device churn): it was
    /// deregistered and its collector window was reset.
    ProviderLeft {
        /// Provider id.
        provider: String,
    },
    /// A previously-seen provider re-joined the environment (device
    /// churn). Its collector history starts fresh.
    ProviderRejoined {
        /// Provider id.
        provider: String,
    },
}

/// Snapshot of one latency or cost histogram. Bucket counts are
/// per-bucket (not cumulative); `le` edges and `sum` are in display units
/// (milliseconds for latency, cost units for cost).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, in display units.
    pub sum: f64,
    /// Observations above the largest bucket edge.
    pub overflow: u64,
    /// Per-bucket observation counts.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Upper-edge estimate of the `q`-quantile (`0.0 < q <= 1.0`): the
    /// smallest bucket edge at or below which at least `ceil(q * count)`
    /// observations fall, or `None` when the histogram is empty or the
    /// quantile lands in the overflow bucket. Conservative (never
    /// under-reports), which is the right bias for latency SLO checks.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q == 0.0 {
            return None;
        }
        let rank = (q * to_f64(self.count)).ceil().max(1.0);
        let mut seen = 0.0;
        for bucket in &self.buckets {
            seen += to_f64(bucket.count);
            if seen >= rank {
                return Some(bucket.le);
            }
        }
        None
    }
}

/// One histogram bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Upper (inclusive) edge of the bucket, in display units.
    pub le: f64,
    /// Observations in `(previous edge, le]`.
    pub count: u64,
}

/// Per-class breakout of one service's counters: requests, sheds, queue
/// occupancy, and the latency histogram (from which per-class p99 is
/// read via [`HistogramSnapshot::quantile`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSnapshot {
    /// The traffic class.
    pub class: QosClass,
    /// Requests of this class served (success or failure).
    pub requests: u64,
    /// Requests of this class that succeeded.
    pub successes: u64,
    /// Requests of this class shed by the admission layer.
    pub shed: u64,
    /// Requests of this class waiting in the admission queue (gauge).
    pub queue_depth: u64,
    /// High-water mark of this class's queue depth.
    pub queue_peak: u64,
    /// Latency histogram of this class's served requests (milliseconds).
    pub latency_ms: HistogramSnapshot,
}

/// Snapshot of one service's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Service id.
    pub service: String,
    /// Service requests served (success or failure).
    pub invocations: u64,
    /// Requests that succeeded (under quorum: that reached agreement).
    pub successes: u64,
    /// Requests served under an active QoS advisory.
    pub advisories: u64,
    /// Quorum votes cast (successful invocations) across all requests.
    pub quorum_votes_cast: u64,
    /// Quorum votes received by each request's winning payload, summed.
    pub quorum_votes_agreed: u64,
    /// Slot re-plans performed.
    pub replans: u64,
    /// Re-plans served by a full cold synthesis run.
    #[serde(default)]
    pub plans_cold: u64,
    /// Re-plans served straight from the plan cache.
    #[serde(default)]
    pub plans_cached: u64,
    /// Plan-cache lookups that hit (absolute gauge from the planner's
    /// cache, captured at the last re-plan).
    #[serde(default)]
    pub plan_cache_hits: u64,
    /// Always `0`: plan caches are private per service, so no hit is
    /// remote. The field outlives the fleet-wide plan store only because
    /// the wall-clock benchmark (`benchmark/src/run.rs`) reads it and a
    /// non-benchmark change may not touch `benchmark/`; the next
    /// `benchmark/`-only change drops that probe and this field together.
    #[serde(default)]
    pub plan_cache_remote_hits: u64,
    /// Plan-cache lookups that missed (absolute gauge).
    #[serde(default)]
    pub plan_cache_misses: u64,
    /// Plan-cache entries dropped before reuse — capacity evictions plus
    /// invalidations on script eviction (absolute gauge).
    #[serde(default)]
    pub plan_cache_stale: u64,
    /// Re-plans that chose a different strategy than the previous slot.
    pub strategy_switches: u64,
    /// Slot boundaries that re-planned because the observed QoS drifted
    /// outside the active plan's quantization band (drift mode only).
    #[serde(default)]
    pub drift_replans: u64,
    /// Slot boundaries that held the active plan because the observed QoS
    /// stayed inside its quantization band (drift mode only).
    #[serde(default)]
    pub drift_holds: u64,
    /// Slot-planning failures.
    pub plan_failures: u64,
    /// Slot records evicted from the bounded history ring.
    pub history_evicted: u64,
    /// Requests shed by the admission layer (in-flight limit reached and
    /// queue full).
    #[serde(default)]
    pub requests_shed: u64,
    /// Requests whose deadline expired mid-execution.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Requests waiting in the admission queue at snapshot time (gauge).
    #[serde(default)]
    pub admission_queue_depth: u64,
    /// High-water mark of the admission queue depth.
    #[serde(default)]
    pub admission_queue_peak: u64,
    /// Synthesis candidates estimated across all re-plans.
    pub candidates_seen: u64,
    /// Synthesis candidates pruned across all re-plans.
    pub candidates_pruned: u64,
    /// Total time spent in strategy generation.
    pub synthesis_elapsed: Duration,
    /// Live overrides applied via the gateway's control handle.
    #[serde(default)]
    pub overrides: u64,
    /// Request latency histogram (milliseconds).
    pub latency_ms: HistogramSnapshot,
    /// Request cost histogram (cost units).
    pub cost: HistogramSnapshot,
    /// Per-class breakout (one entry per [`QosClass`], priority order).
    /// Empty when deserializing pre-class snapshots.
    #[serde(default)]
    pub classes: Vec<ClassSnapshot>,
}

impl ServiceSnapshot {
    /// The per-class breakout for `class` (`None` on pre-class
    /// snapshots).
    #[must_use]
    pub fn class(&self, class: QosClass) -> Option<&ClassSnapshot> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// Snapshot of one provider's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderSnapshot {
    /// Provider id.
    pub provider: String,
    /// Microservice invocations executed on the provider.
    pub invocations: u64,
    /// Invocations that succeeded.
    pub successes: u64,
    /// Invocations that landed inside an active fault window.
    pub fault_window_hits: u64,
    /// Times the provider left the environment (device churn).
    #[serde(default)]
    pub departures: u64,
    /// Times the provider re-joined after leaving (device churn).
    #[serde(default)]
    pub rejoins: u64,
    /// Invocation latency histogram (milliseconds).
    pub latency_ms: HistogramSnapshot,
    /// Invocation cost histogram (cost units).
    pub cost: HistogramSnapshot,
}

/// Snapshot of market interactions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketSnapshot {
    /// Successful script fetches.
    pub fetches: u64,
    /// Failed script fetches (unknown service, I/O error).
    pub fetch_failures: u64,
    /// Total time spent fetching scripts.
    pub fetch_elapsed: Duration,
}

/// Snapshot of correlated-failure storm markers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StormSnapshot {
    /// Storms that began ([`EventKind::StormOnset`] markers).
    pub onsets: u64,
    /// Storms that ended ([`EventKind::StormRecovered`] markers).
    pub recoveries: u64,
}

/// Snapshot of the event ring's accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRingSnapshot {
    /// Events emitted since startup (including evicted ones).
    pub emitted: u64,
    /// Events evicted from the full ring.
    pub dropped: u64,
    /// Ring capacity.
    pub capacity: u64,
}

/// Gauges of the event-driven execution core: how many requests are in
/// flight and how much frame memory their walks are holding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Requests currently inside the engine.
    pub in_flight: u64,
    /// Live `Seq`/`Par` continuation frames across all in-flight requests.
    pub frames: u64,
    /// High-water mark of `frames` since startup.
    pub frames_peak: u64,
}

/// A serializable copy of every counter, histogram, and buffered event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Clock time the snapshot was taken.
    pub at: Duration,
    /// Per-service counters, sorted by service id.
    pub services: Vec<ServiceSnapshot>,
    /// Per-provider counters, sorted by provider id.
    pub providers: Vec<ProviderSnapshot>,
    /// Market interaction counters.
    pub market: MarketSnapshot,
    /// Correlated-failure storm markers.
    #[serde(default)]
    pub storms: StormSnapshot,
    /// Execution-core occupancy gauges.
    #[serde(default)]
    pub engine: EngineSnapshot,
    /// Event ring accounting.
    pub events: EventRingSnapshot,
    /// The events still buffered in the ring, oldest first.
    pub recent_events: Vec<TelemetryEvent>,
}

impl MetricsSnapshot {
    /// The snapshot of `service`, if it has been observed.
    #[must_use]
    pub fn service(&self, service: &str) -> Option<&ServiceSnapshot> {
        self.services.iter().find(|s| s.service == service)
    }

    /// The snapshot of `provider`, if it has been observed.
    #[must_use]
    pub fn provider(&self, provider: &str) -> Option<&ProviderSnapshot> {
        self.providers.iter().find(|p| p.provider == provider)
    }
}

type EventSink = Box<dyn Fn(&TelemetryEvent) + Send + Sync>;

/// The runtime's telemetry hub. One instance per [`Gateway`](crate::Gateway)
/// (shared via `Arc` with the executor, quorum executor, generator, and
/// fault-injection layers).
pub struct Telemetry {
    clock: Arc<dyn Clock>,
    capacity: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    events: Mutex<VecDeque<TelemetryEvent>>,
    services: RwLock<HashMap<String, Arc<ServiceMetrics>>>,
    providers: RwLock<HashMap<String, Arc<Scope>>>,
    /// The market's, the storms' and the execution core's counters.
    hub: Scope,
    sink: RwLock<Option<EventSink>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("capacity", &self.capacity)
            .field("emitted", &self.seq.load(Ordering::Relaxed))
            .field("services", &self.services.read().len())
            .field("providers", &self.providers.read().len())
            .finish_non_exhaustive()
    }
}

/// The handle `name` in `map`, created (entering snapshots) on the first
/// call.
fn handle<T>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str, new: fn() -> T) -> Arc<T> {
    if let Some(found) = map.read().get(name) {
        return Arc::clone(found);
    }
    let mut map = map.write();
    let created = map
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(new()));
    Arc::clone(created)
}

impl Telemetry {
    /// Creates a telemetry hub timing on `clock`, buffering up to
    /// `event_capacity` events.
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>, event_capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            clock,
            capacity: event_capacity,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
            services: RwLock::new(HashMap::new()),
            providers: RwLock::new(HashMap::new()),
            hub: Scope::new(),
            sink: RwLock::new(None),
        })
    }

    /// The counters of service `name`, created (entering snapshots) on the
    /// first call.
    pub(crate) fn service_metrics(&self, name: &str) -> Arc<ServiceMetrics> {
        handle(&self.services, name, ServiceMetrics::new)
    }

    /// The counters of provider `name`, created (entering snapshots) on
    /// the first call.
    pub(crate) fn provider_metrics(&self, name: &str) -> Arc<Scope> {
        handle(&self.providers, name, Scope::new)
    }

    /// Records one event: moves the counter it stands for, then emits it.
    /// The counter moves first, so accounting stays gap-free when ring
    /// overflow drops the event itself.
    // Rare by design; `cold` keeps callers' event building off hot paths.
    #[cold]
    pub fn record(&self, kind: EventKind) {
        let svc = |name: &str, key| {
            self.service_metrics(name).all.add(key, 1);
        };
        let provider = |name: &str, key| {
            self.provider_metrics(name).add(key, 1);
        };
        match &kind {
            EventKind::SlotReplanned {
                service: name,
                source,
                ..
            } => {
                let all = &self.service_metrics(name).all;
                all.add(Key::Replans, 1);
                match source {
                    Some(PlanSource::Cold) => all.add(Key::PlansCold, 1),
                    Some(PlanSource::Cached) => all.add(Key::PlansCached, 1),
                    None => 0,
                };
            }
            EventKind::ReplanTriggered { service: name, .. } => svc(name, Key::DriftReplans),
            EventKind::StrategySwitched { service: name, .. } => svc(name, Key::StrategySwitches),
            EventKind::PlanFailed { service: name, .. }
            | EventKind::ProviderResolutionFailed { service: name, .. } => {
                svc(name, Key::PlanFailures);
            }
            // Every hit, announced or not, is counted on the provider's
            // handle by the faulty provider itself.
            EventKind::FaultWindowHit { .. } => {}
            EventKind::RequestShed {
                service: name,
                class,
                ..
            } => {
                let metrics = self.service_metrics(name);
                metrics.all.add(Key::Shed, 1);
                metrics.class(*class).add(Key::Shed, 1);
            }
            EventKind::DeadlineExceeded { service: name, .. } => svc(name, Key::DeadlineExceeded),
            EventKind::OverrideApplied { service: name, .. } => svc(name, Key::Overrides),
            EventKind::StormOnset { .. } => {
                self.hub.add(Key::StormOnsets, 1);
            }
            EventKind::StormRecovered { .. } => {
                self.hub.add(Key::StormRecoveries, 1);
            }
            EventKind::ProviderLeft { provider: name } => provider(name, Key::Departures),
            EventKind::ProviderRejoined { provider: name } => provider(name, Key::Rejoins),
        }
        self.emit(kind);
    }

    fn emit(&self, kind: EventKind) {
        let event = TelemetryEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at: self.clock.now(),
            kind,
        };
        if let Some(sink) = self.sink.read().as_ref() {
            sink(&event);
        }
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.events.lock();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Installs a streaming event sink, called synchronously (before ring
    /// insertion) for every event — e.g. `qce run --trace` printing JSON
    /// lines. Replaces any previous sink.
    pub fn set_sink(&self, sink: impl Fn(&TelemetryEvent) + Send + Sync + 'static) {
        *self.sink.write() = Some(Box::new(sink));
    }

    /// Removes the streaming event sink, if any.
    pub fn clear_sink(&self) {
        *self.sink.write() = None;
    }

    /// Records a completed service request (gateway level), attributed to
    /// the request's traffic class. The gateway itself counts through the
    /// service's handle; this looks the handle up by name.
    #[allow(clippy::too_many_arguments)]
    pub fn record_request(
        &self,
        service: &str,
        class: QosClass,
        success: bool,
        latency: Duration,
        cost: f64,
        advisory: bool,
        votes: Option<(usize, usize)>,
    ) {
        self.service_metrics(service)
            .count_request(class, success, latency, cost, advisory, votes);
    }

    /// A request entered the execution core.
    pub(crate) fn record_engine_request_start(&self) {
        self.hub.add(Key::EngineInFlight, 1);
    }

    /// A request left the execution core (resolved or shut down).
    pub(crate) fn record_engine_request_end(&self) {
        self.hub.sub(Key::EngineInFlight, 1);
    }

    /// The core allocated one `Seq`/`Par` continuation frame.
    pub(crate) fn record_engine_frame(&self) {
        let frames = self.hub.add(Key::EngineFrames, 1);
        self.hub.peak(Key::EngineFramesPeak, frames);
    }

    /// A resolved request released its `frames` continuation frames.
    pub(crate) fn record_engine_frames_done(&self, frames: usize) {
        self.hub.sub(Key::EngineFrames, frames as u64);
    }

    /// Records the generator's search effort for one re-plan of `service`
    /// (called by [`Planner::plan_slot_for`](crate::Planner::plan_slot_for),
    /// the search a gateway's slot boundary runs over its selection's
    /// table).
    pub fn record_synthesis(&self, service: &str, report: &SynthesisReport) {
        let all = &self.service_metrics(service).all;
        all.add(Key::CandidatesSeen, report.candidates_seen);
        all.add(Key::CandidatesPruned, report.candidates_pruned);
        all.add(Key::SynthesisMicros, micros(report.elapsed));
    }

    /// Records a successful slot re-plan, emitting a
    /// [`EventKind::SlotReplanned`] event (and a
    /// [`EventKind::StrategySwitched`] event when the strategy text changed
    /// from the previous slot's).
    pub fn record_replan(
        &self,
        service: &str,
        slot: u64,
        origin: &str,
        strategy_text: &str,
        report: Option<&SynthesisReport>,
        source: Option<PlanSource>,
    ) {
        let previous = self
            .service_metrics(service)
            .last_strategy
            .lock()
            .replace(strategy_text.to_string());
        let report = report.copied().unwrap_or_default();
        self.record(EventKind::SlotReplanned {
            service: service.to_string(),
            slot,
            origin: origin.to_string(),
            strategy: strategy_text.to_string(),
            candidates_seen: report.candidates_seen,
            candidates_pruned: report.candidates_pruned,
            elapsed: report.elapsed,
            source,
        });
        if let Some(from) = previous.filter(|previous| previous != strategy_text) {
            self.record(EventKind::StrategySwitched {
                service: service.to_string(),
                slot,
                from,
                to: strategy_text.to_string(),
            });
        }
    }

    /// Records a slot boundary that held its plan because the observed
    /// QoS stayed inside the active plan's quantization band.
    pub fn record_drift_hold(&self, service: &str) {
        self.service_metrics(service).all.add(Key::DriftHolds, 1);
    }

    /// Records a failed slot plan, emitting
    /// [`EventKind::ProviderResolutionFailed`] for missing providers and
    /// [`EventKind::PlanFailed`] for everything else.
    pub fn record_plan_failure(&self, service: &str, slot: u64, error: &RuntimeError) {
        let service = service.to_string();
        self.record(match error {
            RuntimeError::NoProvider { capability } => EventKind::ProviderResolutionFailed {
                service,
                slot,
                capability: capability.clone(),
            },
            other => EventKind::PlanFailed {
                service,
                slot,
                reason: other.to_string(),
            },
        });
    }

    /// Records the current state of a service planner's plan cache. The
    /// values are absolute gauges (the cache owns the authoritative
    /// counters), so this *stores* rather than accumulates.
    pub fn record_plan_cache(&self, service: &str, stats: &PlanCacheStats) {
        let all = &self.service_metrics(service).all;
        all.set(Key::PlanCacheHits, stats.hits);
        all.set(Key::PlanCacheMisses, stats.misses);
        all.set(Key::PlanCacheStale, stats.stale);
    }

    /// Records slot records evicted from a service's bounded history.
    pub fn record_history_evicted(&self, service: &str, evicted: u64) {
        self.service_metrics(service)
            .all
            .add(Key::HistoryEvicted, evicted);
    }

    /// Records a market script fetch.
    pub fn record_market_fetch(&self, elapsed: Duration, success: bool) {
        let outcome = if success {
            Key::MarketFetches
        } else {
            Key::MarketFetchFailures
        };
        self.hub.add(outcome, 1);
        self.hub.add(Key::MarketFetchMicros, micros(elapsed));
    }

    /// The events currently buffered in the ring, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Copies every counter, histogram, and buffered event into a
    /// serializable [`MetricsSnapshot`]. Services and providers are sorted
    /// by id, so snapshots are deterministic.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut services: Vec<ServiceSnapshot> = self
            .services
            .read()
            .iter()
            .map(|(name, m)| ServiceSnapshot {
                service: name.clone(),
                invocations: m.all.get(Key::Requests),
                successes: m.all.get(Key::Successes),
                advisories: m.all.get(Key::Advisories),
                quorum_votes_cast: m.all.get(Key::VotesCast),
                quorum_votes_agreed: m.all.get(Key::VotesAgreed),
                replans: m.all.get(Key::Replans),
                plans_cold: m.all.get(Key::PlansCold),
                plans_cached: m.all.get(Key::PlansCached),
                plan_cache_hits: m.all.get(Key::PlanCacheHits),
                plan_cache_remote_hits: 0,
                plan_cache_misses: m.all.get(Key::PlanCacheMisses),
                plan_cache_stale: m.all.get(Key::PlanCacheStale),
                strategy_switches: m.all.get(Key::StrategySwitches),
                drift_replans: m.all.get(Key::DriftReplans),
                drift_holds: m.all.get(Key::DriftHolds),
                plan_failures: m.all.get(Key::PlanFailures),
                history_evicted: m.all.get(Key::HistoryEvicted),
                requests_shed: m.all.get(Key::Shed),
                deadline_exceeded: m.all.get(Key::DeadlineExceeded),
                admission_queue_depth: m.all.get(Key::QueueDepth),
                admission_queue_peak: m.all.get(Key::QueuePeak),
                candidates_seen: m.all.get(Key::CandidatesSeen),
                candidates_pruned: m.all.get(Key::CandidatesPruned),
                synthesis_elapsed: Duration::from_micros(m.all.get(Key::SynthesisMicros)),
                overrides: m.all.get(Key::Overrides),
                latency_ms: m.all.latency.snapshot(1000.0),
                cost: m.all.cost.snapshot(1000.0),
                classes: QosClass::ALL
                    .iter()
                    .map(|&class| {
                        let c = m.class(class);
                        ClassSnapshot {
                            class,
                            requests: c.get(Key::Requests),
                            successes: c.get(Key::Successes),
                            shed: c.get(Key::Shed),
                            queue_depth: c.get(Key::QueueDepth),
                            queue_peak: c.get(Key::QueuePeak),
                            latency_ms: c.latency.snapshot(1000.0),
                        }
                    })
                    .collect(),
            })
            .collect();
        services.sort_by(|a, b| a.service.cmp(&b.service));

        let mut providers: Vec<ProviderSnapshot> = self
            .providers
            .read()
            .iter()
            .map(|(name, p)| ProviderSnapshot {
                provider: name.clone(),
                invocations: p.get(Key::Requests),
                successes: p.get(Key::Successes),
                fault_window_hits: p.get(Key::FaultWindowHits),
                departures: p.get(Key::Departures),
                rejoins: p.get(Key::Rejoins),
                latency_ms: p.latency.snapshot(1000.0),
                cost: p.cost.snapshot(1000.0),
            })
            .collect();
        providers.sort_by(|a, b| a.provider.cmp(&b.provider));

        let hub = &self.hub;
        MetricsSnapshot {
            at: self.clock.now(),
            services,
            providers,
            market: MarketSnapshot {
                fetches: hub.get(Key::MarketFetches),
                fetch_failures: hub.get(Key::MarketFetchFailures),
                fetch_elapsed: Duration::from_micros(hub.get(Key::MarketFetchMicros)),
            },
            storms: StormSnapshot {
                onsets: hub.get(Key::StormOnsets),
                recoveries: hub.get(Key::StormRecoveries),
            },
            engine: EngineSnapshot {
                in_flight: hub.get(Key::EngineInFlight),
                frames: hub.get(Key::EngineFrames),
                frames_peak: hub.get(Key::EngineFramesPeak),
            },
            events: EventRingSnapshot {
                emitted: self.seq.load(Ordering::Relaxed),
                dropped: self.dropped.load(Ordering::Relaxed),
                capacity: self.capacity as u64,
            },
            recent_events: self.events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{VirtualClock, WallClock};
    use std::collections::{BTreeMap, BTreeSet};

    fn telemetry(capacity: usize) -> (Arc<VirtualClock>, Arc<Telemetry>) {
        let clock = Arc::new(VirtualClock::new());
        let t = Telemetry::new(Arc::clone(&clock) as Arc<dyn Clock>, capacity);
        (clock, t)
    }

    fn fault_hit(provider: &str) -> EventKind {
        EventKind::FaultWindowHit {
            provider: provider.to_string(),
            fault: "crash".to_string(),
        }
    }

    #[test]
    fn request_counters_accumulate() {
        let (_, t) = telemetry(8);
        t.record_request(
            "svc",
            QosClass::Interactive,
            true,
            Duration::from_millis(3),
            50.0,
            false,
            None,
        );
        t.record_request(
            "svc",
            QosClass::Bulk,
            false,
            Duration::from_millis(7),
            150.0,
            true,
            Some((2, 3)),
        );
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.invocations, 2);
        assert_eq!(svc.successes, 1);
        assert_eq!(svc.advisories, 1);
        assert_eq!(svc.quorum_votes_agreed, 2);
        assert_eq!(svc.quorum_votes_cast, 3);
        assert_eq!(svc.latency_ms.count, 2);
        assert!((svc.latency_ms.sum - 10.0).abs() < 1e-9);
        assert!((svc.cost.sum - 200.0).abs() < 1e-9);
        let interactive = svc.class(QosClass::Interactive).unwrap();
        assert_eq!(interactive.requests, 1);
        assert_eq!(interactive.successes, 1);
        let bulk = svc.class(QosClass::Bulk).unwrap();
        assert_eq!(bulk.requests, 1);
        assert_eq!(bulk.successes, 0);
        assert_eq!(svc.class(QosClass::Critical).unwrap().requests, 0);
    }

    #[test]
    fn shed_and_deadline_counters_survive_ring_overflow() {
        // Ring of 2 slots, 10 + 5 events: 13 events evicted, but the
        // per-service counters must stay gap-free because the counter is
        // incremented before the event enters the ring.
        let (_, t) = telemetry(2);
        for queued in 0..10 {
            t.record(EventKind::RequestShed {
                service: "svc".to_string(),
                class: QosClass::Scavenger,
                in_flight: 4,
                queued,
            });
        }
        for request_id in 0..5 {
            t.record(EventKind::DeadlineExceeded {
                service: "svc".to_string(),
                request_id,
                class: QosClass::Interactive,
            });
        }
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.requests_shed, 10);
        assert_eq!(svc.deadline_exceeded, 5);
        assert_eq!(svc.class(QosClass::Scavenger).unwrap().shed, 10);
        assert_eq!(svc.class(QosClass::Critical).unwrap().shed, 0);
        assert_eq!(snap.events.emitted, 15);
        assert_eq!(snap.events.dropped, 13);
        assert_eq!(snap.recent_events.len(), 2);
    }

    #[test]
    fn admission_queue_gauge_tracks_peak() {
        let (_, t) = telemetry(4);
        let metrics = t.service_metrics("svc");
        metrics.count_queue_depth(QosClass::Bulk, 1, 3);
        metrics.count_queue_depth(QosClass::Bulk, 1, 7);
        metrics.count_queue_depth(QosClass::Bulk, 1, 1);
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.admission_queue_depth, 1, "gauge holds the last value");
        assert_eq!(svc.admission_queue_peak, 7, "peak is the high-water mark");
    }

    #[test]
    fn invocation_counters_accumulate_per_provider() {
        let (_, t) = telemetry(8);
        let x = t.provider_metrics("d1/x");
        x.count_invocation(true, Duration::from_millis(2), 10.0);
        x.count_invocation(false, Duration::from_millis(4), 10.0);
        t.provider_metrics("d2/y")
            .count_invocation(true, Duration::from_millis(1), 5.0);
        let snap = t.snapshot();
        assert_eq!(snap.providers.len(), 2);
        // Sorted by id.
        assert_eq!(snap.providers[0].provider, "d1/x");
        assert_eq!(snap.providers[0].invocations, 2);
        assert_eq!(snap.providers[0].successes, 1);
        assert_eq!(snap.provider("d2/y").unwrap().invocations, 1);
    }

    #[test]
    fn histogram_buckets_by_latency() {
        let h = Histogram::new(&LATENCY_EDGES_US);
        h.record(500); // ≤ 1 ms
        h.record(1_500); // ≤ 2 ms
        h.record(2_000_000); // overflow (> 1 s)
        let snap = h.snapshot(1000.0);
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0].count, 1);
        assert_eq!(snap.buckets[1].count, 1);
        assert_eq!(snap.overflow, 1);
        assert!((snap.buckets[0].le - 1.0).abs() < 1e-9, "edges in ms");
    }

    /// Regression test: a saturated raw observation (`micros` clamps
    /// out-of-range durations to `u64::MAX`) must not wrap the running sum
    /// — pre-fix, `fetch_add` left `sum` at `raw − 1` after one more
    /// sample, silently losing every accumulated count.
    #[test]
    fn saturated_observation_does_not_wrap_the_sum() {
        let h = Histogram::new(&LATENCY_EDGES_US);
        h.record(1_000);
        h.record(u64::MAX); // e.g. a Duration beyond u64 microseconds
        h.record(1_000);
        let snap = h.snapshot(1000.0);
        assert_eq!(snap.count, 3, "every sample is counted");
        assert_eq!(snap.overflow, 1, "the saturated sample lands in overflow");
        assert!(
            snap.sum >= to_f64(u64::MAX) / 1000.0,
            "sum must saturate, not wrap: {}",
            snap.sum
        );
    }

    /// An out-of-range sample must survive a snapshot serde round-trip
    /// intact: counted, summed (saturating), and in the overflow bucket.
    #[test]
    fn out_of_range_sample_round_trips_through_snapshot() {
        let (_, t) = telemetry(4);
        // 1 hour ≫ the 1 s top latency edge; cost 5000 ≫ the 2000 top edge.
        t.record_request(
            "svc",
            QosClass::Interactive,
            true,
            Duration::from_secs(3600),
            5_000.0,
            false,
            None,
        );
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.latency_ms.count, 1);
        assert_eq!(svc.latency_ms.overflow, 1);
        assert!(svc.latency_ms.buckets.iter().all(|b| b.count == 0));
        assert_eq!(svc.cost.overflow, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let back_svc = back.service("svc").unwrap();
        assert_eq!(back_svc.latency_ms.overflow, 1);
        assert!((back_svc.latency_ms.sum - 3_600_000.0).abs() < 1e-6);
    }

    /// Plan provenance counters accumulate per source, and the cache
    /// gauges store absolute values.
    #[test]
    fn plan_source_counters_and_cache_gauges() {
        let (_, t) = telemetry(8);
        t.record_replan("svc", 0, "default", "a*b", None, None);
        t.record_replan("svc", 1, "generated", "a-b", None, Some(PlanSource::Cold));
        t.record_replan("svc", 2, "generated", "a-b", None, Some(PlanSource::Cached));
        t.record_replan("svc", 3, "generated", "a-b", None, Some(PlanSource::Cached));
        t.record_replan("svc", 4, "generated", "a-b", None, Some(PlanSource::Cached));
        let stats = PlanCacheStats {
            hits: 2,
            misses: 3,
            stale: 1,
            entries: 3,
        };
        t.record_plan_cache("svc", &stats);
        t.record_plan_cache("svc", &stats); // stores, must not double
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.replans, 5);
        assert_eq!(svc.plans_cold, 1);
        assert_eq!(svc.plans_cached, 3);
        assert_eq!(svc.plan_cache_hits, 2);
        assert_eq!(svc.plan_cache_remote_hits, 0);
        assert_eq!(svc.plan_cache_misses, 3);
        assert_eq!(svc.plan_cache_stale, 1);
        // The event stream carries the provenance too.
        let sources: Vec<_> = snap
            .recent_events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::SlotReplanned { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert_eq!(
            sources,
            vec![
                None,
                Some(PlanSource::Cold),
                Some(PlanSource::Cached),
                Some(PlanSource::Cached),
                Some(PlanSource::Cached),
            ]
        );
    }

    #[test]
    fn replan_detects_strategy_switches() {
        let (_, t) = telemetry(8);
        t.record_replan("svc", 0, "default", "a*b", None, None);
        let report = SynthesisReport {
            candidates_seen: 10,
            candidates_pruned: 3,
            elapsed: Duration::from_micros(250),
        };
        t.record_replan(
            "svc",
            1,
            "generated(exhaustive)",
            "a-b",
            Some(&report),
            Some(PlanSource::Cold),
        );
        t.record_replan(
            "svc",
            2,
            "generated(exhaustive)",
            "a-b",
            Some(&report),
            Some(PlanSource::Cached),
        );
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        assert_eq!(svc.replans, 3);
        assert_eq!(svc.strategy_switches, 1, "a*b → a-b, then unchanged");
        let switches: Vec<_> = snap
            .recent_events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::StrategySwitched { .. }))
            .collect();
        assert_eq!(switches.len(), 1);
        match &switches[0].kind {
            EventKind::StrategySwitched { from, to, slot, .. } => {
                assert_eq!(from, "a*b");
                assert_eq!(to, "a-b");
                assert_eq!(*slot, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn replan_event_carries_synthesis_report() {
        let (_, t) = telemetry(8);
        let report = SynthesisReport {
            candidates_seen: 42,
            candidates_pruned: 7,
            elapsed: Duration::from_micros(99),
        };
        t.record_replan(
            "svc",
            1,
            "generated(exhaustive)",
            "a-b",
            Some(&report),
            Some(PlanSource::Cold),
        );
        match &t.events()[0].kind {
            EventKind::SlotReplanned {
                candidates_seen,
                candidates_pruned,
                elapsed,
                ..
            } => {
                assert_eq!(*candidates_seen, 42);
                assert_eq!(*candidates_pruned, 7);
                assert_eq!(*elapsed, Duration::from_micros(99));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plan_failure_distinguishes_missing_provider() {
        let (_, t) = telemetry(8);
        t.record_plan_failure(
            "svc",
            3,
            &RuntimeError::NoProvider {
                capability: "read-temp".into(),
            },
        );
        t.record_plan_failure(
            "svc",
            4,
            &RuntimeError::Generation {
                reason: "boom".into(),
            },
        );
        let events = t.events();
        assert!(matches!(
            &events[0].kind,
            EventKind::ProviderResolutionFailed { capability, .. } if capability == "read-temp"
        ));
        assert!(matches!(
            &events[1].kind,
            EventKind::PlanFailed { reason, .. } if reason.contains("boom")
        ));
        assert_eq!(t.snapshot().service("svc").unwrap().plan_failures, 2);
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let (_, t) = telemetry(2);
        for i in 0..5 {
            t.record(fault_hit(&format!("d{i}")));
        }
        let snap = t.snapshot();
        assert_eq!(snap.recent_events.len(), 2);
        assert_eq!(snap.events.emitted, 5);
        assert_eq!(snap.events.dropped, 3);
        assert_eq!(snap.events.capacity, 2);
        // The ring keeps the newest events.
        assert_eq!(snap.recent_events[0].seq, 3);
        assert_eq!(snap.recent_events[1].seq, 4);
    }

    #[test]
    fn events_are_stamped_with_clock_time() {
        let (clock, t) = telemetry(8);
        clock.advance(Duration::from_millis(25));
        t.record(fault_hit("d"));
        assert_eq!(t.events()[0].at, Duration::from_millis(25));
    }

    #[test]
    fn sink_sees_every_event_even_when_ring_drops() {
        use std::sync::atomic::AtomicUsize;
        let (_, t) = telemetry(1);
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        t.set_sink(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..4 {
            t.record(fault_hit("d"));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 4);
        t.clear_sink();
        t.record(fault_hit("d"));
        assert_eq!(seen.load(Ordering::Relaxed), 4, "sink removed");
    }

    #[test]
    fn snapshot_serializes_and_round_trips() {
        let (_, t) = telemetry(4);
        t.record_request(
            "svc",
            QosClass::Critical,
            true,
            Duration::from_millis(3),
            50.0,
            false,
            None,
        );
        t.provider_metrics("d/x")
            .count_invocation(true, Duration::from_millis(2), 25.0);
        t.record_replan("svc", 0, "default", "a*b", None, None);
        t.record_market_fetch(Duration::from_millis(1), true);
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"svc\""));
        assert!(json.contains("SlotReplanned"));
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn storm_and_churn_markers_accumulate_and_round_trip() {
        let (_, t) = telemetry(8);
        let storm = || "radio".to_string();
        let group = || vec!["d0/c0".to_string(), "d1/c1".to_string()];
        let provider = || "d0/c0".to_string();
        t.record(EventKind::StormOnset {
            storm: storm(),
            providers: group(),
        });
        t.record(EventKind::ProviderLeft {
            provider: provider(),
        });
        t.record(EventKind::ProviderRejoined {
            provider: provider(),
        });
        t.record(EventKind::StormRecovered {
            storm: storm(),
            providers: group(),
        });
        let snap = t.snapshot();
        assert_eq!(snap.storms.onsets, 1);
        assert_eq!(snap.storms.recoveries, 1);
        let p = snap.provider("d0/c0").unwrap();
        assert_eq!(p.departures, 1);
        assert_eq!(p.rejoins, 1);
        assert!(matches!(
            snap.recent_events[0].kind,
            EventKind::StormOnset { ref storm, ref providers }
                if storm == "radio" && providers.len() == 2
        ));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn zero_capacity_ring_still_counts() {
        let (_, t) = telemetry(0);
        t.record(fault_hit("d"));
        let snap = t.snapshot();
        assert!(snap.recent_events.is_empty());
        assert_eq!(snap.events.emitted, 1);
        assert_eq!(snap.events.dropped, 1);
    }

    #[test]
    fn market_counters_accumulate() {
        let (_, t) = telemetry(4);
        t.record_market_fetch(Duration::from_millis(2), true);
        t.record_market_fetch(Duration::from_millis(3), false);
        let market = t.snapshot().market;
        assert_eq!(market.fetches, 1);
        assert_eq!(market.fetch_failures, 1);
        assert_eq!(market.fetch_elapsed, Duration::from_millis(5));
    }

    #[test]
    fn works_on_wall_clock_too() {
        let t = Telemetry::new(Arc::new(WallClock::new()), 4);
        t.record_request(
            "svc",
            QosClass::Interactive,
            true,
            Duration::from_millis(1),
            1.0,
            false,
            None,
        );
        assert_eq!(t.snapshot().service("svc").unwrap().invocations, 1);
    }

    #[test]
    fn class_queue_gauges_and_overrides_accumulate() {
        let (_, t) = telemetry(4);
        let metrics = t.service_metrics("svc");
        metrics.count_queue_depth(QosClass::Bulk, 2, 2);
        metrics.count_queue_depth(QosClass::Bulk, 5, 5);
        metrics.count_queue_depth(QosClass::Bulk, 1, 1);
        t.record(EventKind::OverrideApplied {
            service: "svc".to_string(),
            field: "class".to_string(),
            value: "critical".to_string(),
        });
        let snap = t.snapshot();
        let svc = snap.service("svc").unwrap();
        let bulk = svc.class(QosClass::Bulk).unwrap();
        assert_eq!(bulk.queue_depth, 1, "gauge holds the last value");
        assert_eq!(bulk.queue_peak, 5, "peak is the high-water mark");
        assert_eq!(svc.class(QosClass::Critical).unwrap().queue_peak, 0);
        assert_eq!(svc.overrides, 1);
        assert!(matches!(
            &snap.recent_events[0].kind,
            EventKind::OverrideApplied { service, field, value }
                if service == "svc" && field == "class" && value == "critical"
        ));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn histogram_quantile_reads_upper_edges() {
        let h = Histogram::new(&LATENCY_EDGES_US);
        for _ in 0..99 {
            h.record(900); // ≤ 1 ms
        }
        h.record(40_000); // ≤ 50 ms
        let snap = h.snapshot(1000.0);
        assert_eq!(snap.quantile(0.5), Some(1.0), "median in the 1 ms bucket");
        assert_eq!(snap.quantile(0.99), Some(1.0));
        assert_eq!(snap.quantile(1.0), Some(50.0), "max in the 50 ms bucket");
        assert_eq!(snap.quantile(0.0), None);
        let empty = Histogram::new(&LATENCY_EDGES_US).snapshot(1000.0);
        assert_eq!(empty.quantile(0.99), None);
    }

    /// Pre-class events (no `class` field) must still deserialize, with
    /// the class defaulting to Interactive.
    #[test]
    fn pre_class_shed_event_deserializes_with_default_class() {
        let json = r#"{"seq":0,"at":{"secs":0,"nanos":0},
            "kind":{"RequestShed":{"service":"svc","in_flight":1,"queued":0}}}"#;
        let event: TelemetryEvent = serde_json::from_str(json).unwrap();
        assert!(matches!(
            event.kind,
            EventKind::RequestShed {
                class: QosClass::Interactive,
                ..
            }
        ));
    }

    /// The snapshot's integer leaves by JSON path (array entries by
    /// index), without the event ring's accounting.
    fn counters(t: &Telemetry) -> BTreeMap<String, u64> {
        fn walk(path: &str, value: &serde_json::Value, out: &mut BTreeMap<String, u64>) {
            match value {
                serde_json::Value::Object(map) => {
                    for (key, value) in map.iter() {
                        walk(&format!("{path}.{key}"), value, out);
                    }
                }
                serde_json::Value::Array(items) => {
                    for (i, value) in items.iter().enumerate() {
                        walk(&format!("{path}.{i}"), value, out);
                    }
                }
                serde_json::Value::UInt(n) => {
                    out.insert(path.to_string(), *n);
                }
                _ => {}
            }
        }
        let mut snap = t.snapshot();
        snap.recent_events.clear();
        snap.events.emitted = 0;
        snap.events.dropped = 0;
        let mut out = BTreeMap::new();
        walk("", &serde_json::to_value(&snap).unwrap(), &mut out);
        out
    }

    /// Each event kind, recorded once on a fresh hub, moves exactly the
    /// counters its `record` arm names, each by one.
    #[test]
    fn each_event_moves_exactly_its_counter() {
        let svc = || "svc".to_string();
        let provider = || "p".to_string();
        let replanned = |source| EventKind::SlotReplanned {
            service: svc(),
            slot: 1,
            origin: "default".to_string(),
            strategy: "a".to_string(),
            candidates_seen: 3,
            candidates_pruned: 2,
            elapsed: Duration::from_micros(5),
            source,
        };
        let cases: Vec<(EventKind, &[&str])> = vec![
            (replanned(None), &[".services.0.replans"]),
            (
                replanned(Some(PlanSource::Cold)),
                &[".services.0.replans", ".services.0.plans_cold"],
            ),
            (
                replanned(Some(PlanSource::Cached)),
                &[".services.0.replans", ".services.0.plans_cached"],
            ),
            (
                EventKind::ReplanTriggered {
                    service: svc(),
                    slot: 1,
                    drift: 0.5,
                },
                &[".services.0.drift_replans"],
            ),
            (
                EventKind::StrategySwitched {
                    service: svc(),
                    slot: 1,
                    from: "a".to_string(),
                    to: "b".to_string(),
                },
                &[".services.0.strategy_switches"],
            ),
            (
                EventKind::PlanFailed {
                    service: svc(),
                    slot: 1,
                    reason: "boom".to_string(),
                },
                &[".services.0.plan_failures"],
            ),
            (
                EventKind::ProviderResolutionFailed {
                    service: svc(),
                    slot: 1,
                    capability: "c".to_string(),
                },
                &[".services.0.plan_failures"],
            ),
            (fault_hit("p"), &[]),
            (
                EventKind::RequestShed {
                    service: svc(),
                    class: QosClass::Scavenger,
                    in_flight: 4,
                    queued: 2,
                },
                &[".services.0.requests_shed", ".services.0.classes.3.shed"],
            ),
            (
                EventKind::DeadlineExceeded {
                    service: svc(),
                    request_id: 7,
                    class: QosClass::Bulk,
                },
                &[".services.0.deadline_exceeded"],
            ),
            (
                EventKind::OverrideApplied {
                    service: svc(),
                    field: "class".to_string(),
                    value: "bulk".to_string(),
                },
                &[".services.0.overrides"],
            ),
            (
                EventKind::StormOnset {
                    storm: "radio".to_string(),
                    providers: vec![provider()],
                },
                &[".storms.onsets"],
            ),
            (
                EventKind::StormRecovered {
                    storm: "radio".to_string(),
                    providers: vec![provider()],
                },
                &[".storms.recoveries"],
            ),
            (
                EventKind::ProviderLeft {
                    provider: provider(),
                },
                &[".providers.0.departures"],
            ),
            (
                EventKind::ProviderRejoined {
                    provider: provider(),
                },
                &[".providers.0.rejoins"],
            ),
        ];
        for (kind, expected) in cases {
            let (_, t) = telemetry(4);
            t.service_metrics("svc");
            t.provider_metrics("p");
            let before = counters(&t);
            t.record(kind.clone());
            let after = counters(&t);
            assert_eq!(
                before.keys().collect::<Vec<_>>(),
                after.keys().collect::<Vec<_>>(),
                "{kind:?}"
            );
            let moved: Vec<(&str, u64)> = after
                .iter()
                .filter(|(path, n)| before[*path] != **n)
                .map(|(path, n)| (path.as_str(), n - before[path]))
                .collect();
            let wanted: Vec<(&str, u64)> = {
                let mut wanted: Vec<_> = expected.iter().map(|path| (*path, 1)).collect();
                wanted.sort_unstable();
                wanted
            };
            assert_eq!(moved, wanted, "{kind:?}");
            assert_eq!(t.events().len(), 1, "{kind:?} is emitted once");
        }
    }

    /// Every snapshot field reads its own key: with each cell of each
    /// scope holding a distinct value, a field wired to another key (or
    /// two fields wired to one) reads the wrong one.
    #[test]
    fn each_key_feeds_exactly_one_snapshot_field() {
        let (_, t) = telemetry(4);
        let svc = t.service_metrics("svc");
        let provider = t.provider_metrics("p");
        let scopes: Vec<&Scope> = std::iter::once(&svc.all)
            .chain(&svc.classes)
            .chain([&*provider, &t.hub])
            .collect();
        let value = |scope: usize, key: Key| 1000 * scope as u64 + key as u64 + 1;
        for (s, scope) in scopes.iter().enumerate() {
            for (k, cell) in scope.cells.iter().enumerate() {
                cell.store(1000 * s as u64 + k as u64 + 1, Ordering::Relaxed);
            }
        }
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap();
        let snap = t.snapshot();
        let s = &snap.services[0];
        let p = &snap.providers[0];
        let mut fields: Vec<(u64, u64)> = vec![
            (s.invocations, value(0, Key::Requests)),
            (s.successes, value(0, Key::Successes)),
            (s.advisories, value(0, Key::Advisories)),
            (s.quorum_votes_cast, value(0, Key::VotesCast)),
            (s.quorum_votes_agreed, value(0, Key::VotesAgreed)),
            (s.replans, value(0, Key::Replans)),
            (s.plans_cold, value(0, Key::PlansCold)),
            (s.plans_cached, value(0, Key::PlansCached)),
            (s.plan_cache_hits, value(0, Key::PlanCacheHits)),
            (s.plan_cache_misses, value(0, Key::PlanCacheMisses)),
            (s.plan_cache_stale, value(0, Key::PlanCacheStale)),
            (s.strategy_switches, value(0, Key::StrategySwitches)),
            (s.drift_replans, value(0, Key::DriftReplans)),
            (s.drift_holds, value(0, Key::DriftHolds)),
            (s.plan_failures, value(0, Key::PlanFailures)),
            (s.history_evicted, value(0, Key::HistoryEvicted)),
            (s.requests_shed, value(0, Key::Shed)),
            (s.deadline_exceeded, value(0, Key::DeadlineExceeded)),
            (s.admission_queue_depth, value(0, Key::QueueDepth)),
            (s.admission_queue_peak, value(0, Key::QueuePeak)),
            (s.candidates_seen, value(0, Key::CandidatesSeen)),
            (s.candidates_pruned, value(0, Key::CandidatesPruned)),
            (micros(s.synthesis_elapsed), value(0, Key::SynthesisMicros)),
            (s.overrides, value(0, Key::Overrides)),
        ];
        for (i, c) in s.classes.iter().enumerate() {
            assert_eq!(c.class, QosClass::ALL[i]);
            fields.extend([
                (c.requests, value(1 + i, Key::Requests)),
                (c.successes, value(1 + i, Key::Successes)),
                (c.shed, value(1 + i, Key::Shed)),
                (c.queue_depth, value(1 + i, Key::QueueDepth)),
                (c.queue_peak, value(1 + i, Key::QueuePeak)),
            ]);
        }
        let hub = 1 + CLASS_COUNT + 1;
        fields.extend([
            (p.invocations, value(hub - 1, Key::Requests)),
            (p.successes, value(hub - 1, Key::Successes)),
            (p.fault_window_hits, value(hub - 1, Key::FaultWindowHits)),
            (p.departures, value(hub - 1, Key::Departures)),
            (p.rejoins, value(hub - 1, Key::Rejoins)),
            (snap.market.fetches, value(hub, Key::MarketFetches)),
            (
                snap.market.fetch_failures,
                value(hub, Key::MarketFetchFailures),
            ),
            (
                micros(snap.market.fetch_elapsed),
                value(hub, Key::MarketFetchMicros),
            ),
            (snap.storms.onsets, value(hub, Key::StormOnsets)),
            (snap.storms.recoveries, value(hub, Key::StormRecoveries)),
            (snap.engine.in_flight, value(hub, Key::EngineInFlight)),
            (snap.engine.frames, value(hub, Key::EngineFrames)),
            (snap.engine.frames_peak, value(hub, Key::EngineFramesPeak)),
        ]);
        let wanted: BTreeSet<u64> = fields.iter().map(|&(_, want)| want).collect();
        assert_eq!(
            wanted.len(),
            fields.len(),
            "the table names each key once per scope"
        );
        for (i, (got, want)) in fields.into_iter().enumerate() {
            assert_eq!(got, want, "field {i} of the table");
        }
        assert_eq!(s.plan_cache_remote_hits, 0);
    }
}
