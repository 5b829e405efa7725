//! The edge gateway: the centrepiece of the paper's system design
//! (Section IV, Fig. 4).
//!
//! The gateway accepts client service requests by `ServiceID`, fetches and
//! caches the service script from the market, resolves each equivalent
//! microservice to its best provider (Assumption 1), and runs the
//! **feedback loop**: the *collector* records per-provider QoS, the
//! *generator* re-synthesizes the execution strategy at every time-slot
//! boundary, and the *strategy executor* carries it out on real threads.
//! The first slot runs the default strategy to gather observations; each
//! later slot runs the strategy generated from the previous slot's data,
//! so the system self-adapts to dissimilar and drifting environments.

mod admission;
mod control;
mod handle;
mod planning;

pub use control::GatewayControl;
pub use handle::RequestHandle;

use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::task::Waker;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use qce_strategy::{Attribute, Qos, Requirements, Strategy};

use crate::clock::{Clock, WallClock, WorkerGuard};
use crate::collector::Collector;
use crate::device::Provider;
use crate::engine::event::{
    BlockingTask, Done, EventCore, OnDone, PanicPayload, Plan, RequestResult, RequestSpec, Shared,
    Task,
};
use crate::engine::{
    Budget, Completion, EngineOutcome, EngineStats, PolicyState, PoolStats, PruneDetail,
    PruneReason, WorkerPool,
};
use crate::generator::{StrategyOrigin, SynthesisSettings};
use crate::market::Market;
use crate::message::{Invocation, RuntimeError};
use crate::registry::Registry;
use crate::request::{QosClass, Request};
use crate::telemetry::{EventKind, ServiceMetrics, Telemetry};

use admission::{Admission, AdmissionGate, AdmissionPermit, AdmitOutcome, OnAdmit, Shed, WakerFn};
use control::ServiceOverrides;
use handle::{HandleResult, Handoff};
use planning::{ServiceState, SlotShared};

/// Capacity of a gateway's telemetry event ring.
const TELEMETRY_EVENTS: usize = 1024;

/// [`SlotRecord`]s kept per service; older records are evicted (and counted
/// in telemetry) so long-running services don't leak.
const HISTORY_LIMIT: usize = 1024;

/// Gateway configuration knobs.
///
/// Construct with [`GatewayConfig::builder`] (the struct is
/// `#[non_exhaustive]`, so literal construction outside the crate does not
/// compile — new knobs must never be a breaking change again).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct GatewayConfig {
    /// Sliding-window size of the QoS collector (observations per
    /// provider). `0` is treated as `1`.
    pub collector_window: usize,
    /// Worker threads for the per-slot exhaustive search (`0` = one per
    /// available core, counted once per service, when its planner is
    /// built).
    pub generator_parallelism: usize,
    /// Cache winning plans per service, keyed by the search inputs, so a
    /// slot whose environment is unchanged skips the search entirely.
    pub plan_cache: bool,
    /// Plan-cache key quantization step. `0.0` (the default) keys on exact
    /// bit patterns, making cache hits provably bit-identical to a fresh
    /// search; positive steps trade that exactness for more hits under
    /// small environment drift.
    pub plan_quantize: f64,
    /// Which search backend plans each slot: a fixed backend
    /// (`Exhaustive` / `Greedy` / `Beam(W)`) or the paper's threshold rule
    /// (`Threshold`, the default).
    pub planner: qce_strategy::BackendChoice,
    /// Re-plan at a slot boundary only when the collector's QoS table has
    /// drifted outside the active plan's quantization band (measured with
    /// [`env_drift`](crate::env_drift) at `plan_quantize` granularity).
    /// `false` (the default) re-plans at every boundary, the paper's
    /// fixed-cadence behavior.
    pub replan_on_drift: bool,
    /// Maximum concurrent invocations per service (`0` = unlimited).
    /// Requests beyond the limit wait in the admission queue.
    pub max_in_flight: usize,
    /// Admission-queue capacity per service. When a service is at its
    /// in-flight limit *and* this many requests are already queued, further
    /// requests are shed with [`RuntimeError::Overloaded`].
    pub admission_queue: usize,
    /// Per-request deadline, measured from admission. Legs of the strategy
    /// that have not started when the deadline passes are pruned; legs
    /// already in flight complete and are charged (Assumption 2).
    pub request_deadline: Option<Duration>,
    /// Event-loop threads draining asynchronous submissions
    /// ([`Gateway::submit_async`]). Requests are state machines on a shared
    /// event core, so one loop drains every service; extra loops only help
    /// when per-event CPU work (planning, result assembly) saturates a
    /// core. `0` is treated as `1`.
    pub event_loops: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            collector_window: 100,
            generator_parallelism: 0,
            plan_cache: false,
            plan_quantize: 0.0,
            planner: qce_strategy::BackendChoice::Threshold,
            replan_on_drift: false,
            max_in_flight: 0,
            admission_queue: 16,
            request_deadline: None,
            event_loops: 1,
        }
    }
}

impl GatewayConfig {
    /// Starts a builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> GatewayConfigBuilder {
        GatewayConfigBuilder::new()
    }

    /// The synthesis-engine settings implied by this configuration.
    #[must_use]
    pub fn synthesis_settings(&self) -> SynthesisSettings {
        SynthesisSettings {
            parallelism: self.generator_parallelism,
            plan_cache: self.plan_cache,
            plan_quantize: self.plan_quantize,
            planner: self.planner,
            replan_on_drift: self.replan_on_drift,
        }
    }
}

/// Builder for [`GatewayConfig`]: every knob starts at its default and is
/// overridden fluently.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use qce_runtime::GatewayConfig;
///
/// let config = GatewayConfig::builder()
///     .max_in_flight(4)
///     .admission_queue(8)
///     .request_deadline(Some(Duration::from_millis(100)))
///     .build();
/// assert_eq!(config.max_in_flight, 4);
/// assert_eq!(config.collector_window, 100, "untouched knobs keep defaults");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

macro_rules! config_setters {
    ($($(#[$doc:meta])* $field:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $field(mut self, $field: $ty) -> Self {
                self.config.$field = $field;
                self
            }
        )*
    };
}

impl GatewayConfigBuilder {
    /// A builder seeded with [`GatewayConfig::default`].
    #[must_use]
    pub fn new() -> Self {
        GatewayConfigBuilder::default()
    }

    config_setters! {
        /// See [`GatewayConfig::collector_window`].
        collector_window: usize,
        /// See [`GatewayConfig::generator_parallelism`].
        generator_parallelism: usize,
        /// See [`GatewayConfig::plan_cache`].
        plan_cache: bool,
        /// See [`GatewayConfig::plan_quantize`].
        plan_quantize: f64,
        /// See [`GatewayConfig::planner`].
        planner: qce_strategy::BackendChoice,
        /// See [`GatewayConfig::replan_on_drift`].
        replan_on_drift: bool,
        /// See [`GatewayConfig::max_in_flight`].
        max_in_flight: usize,
        /// See [`GatewayConfig::admission_queue`].
        admission_queue: usize,
        /// See [`GatewayConfig::request_deadline`].
        request_deadline: Option<Duration>,
        /// See [`GatewayConfig::event_loops`].
        event_loops: usize,
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> GatewayConfig {
        self.config
    }
}

/// The gateway's warning that a generated strategy cannot meet the QoS
/// requirements (Section IV.C: "the gateway reports the estimated
/// unsatisfied QoS to the client, which then determines whether the service
/// request with this expected QoS should be continued").
#[derive(Debug, Clone, PartialEq)]
pub struct QosAdvisory {
    /// The estimated QoS of the best strategy the generator could find.
    pub estimated: Qos,
    /// Which attributes miss their requirements.
    pub violations: Vec<Attribute>,
}

/// A completed service request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// Correlates with the client request.
    pub request_id: u64,
    /// The traffic class the request was admitted under, after resolving
    /// the request's explicit class against the service's live override
    /// and the [`QosClass::default`] fallback.
    pub class: QosClass,
    /// Whether any equivalent microservice succeeded.
    pub success: bool,
    /// Payload of the winning microservice, if any.
    pub payload: Option<Vec<u8>>,
    /// Wall-clock latency to the first success (or total failure).
    pub latency: Duration,
    /// Total cost charged (Assumption 2).
    pub cost: f64,
    /// The strategy that served the request: the slot plan's own, shared
    /// with every other request of the slot.
    pub strategy: Arc<Strategy>,
    /// The strategy rendered with the script's microservice names.
    pub strategy_text: String,
    /// Zero-based time slot the request fell into.
    pub slot: u64,
    /// How the slot's strategy was chosen.
    pub origin: StrategyOrigin,
    /// Present when the generator expects the QoS requirements to be
    /// missed (the client decides whether to continue).
    pub advisory: Option<QosAdvisory>,
    /// `(votes for the answer, votes cast)` when the script requests quorum
    /// execution (§VII); `None` under first-success semantics.
    pub votes: Option<(usize, usize)>,
    /// Present when the request's budget stopped the walk early: the
    /// deadline passed, or the service was evicted mid-request. Legs that
    /// had not started were skipped; the reported outcome covers only the
    /// legs that ran.
    pub pruned: Option<PruneReason>,
    /// Full attribution of the prune (reason, class, remaining deadline
    /// budget at the prune instant). Always present when
    /// [`ServiceResponse::pruned`] is.
    pub prune_detail: Option<PruneDetail>,
}

/// Record of one time slot's planning decision, kept for diagnostics and
/// for the adaptation experiments (Fig. 8).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotRecord {
    /// Zero-based slot index.
    pub slot: u64,
    /// The strategy chosen for the slot, with script names.
    pub strategy_text: String,
    /// How it was chosen.
    pub origin: StrategyOrigin,
    /// The generator's QoS estimate for the slot's strategy.
    pub estimated: Option<Qos>,
}

/// One service's entry in the gateway: its id, its state cell (`None`
/// until the script has been fetched and validated), its admission gate,
/// its live control-plane overrides, the eviction flag chained into every
/// in-flight request's [`Budget`], and the handle on its telemetry
/// counters. Each service has its own lock so one service's (potentially
/// expensive) slot re-plan never blocks invocations of another.
struct ServiceEntry {
    /// The service id every request's [`RequestMeta`] shares.
    id: Arc<str>,
    cell: Mutex<Option<ServiceState>>,
    gate: Arc<AdmissionGate>,
    overrides: Mutex<ServiceOverrides>,
    evicted: Arc<AtomicBool>,
    /// The service's counters, shared with its gate's depth sink.
    metrics: Arc<LazyMetrics>,
}

/// A service's counters, resolved on the first record — a finished
/// request or a queue change — so a service that records nothing leaves
/// no telemetry row.
struct LazyMetrics {
    telemetry: Arc<Telemetry>,
    service_id: Arc<str>,
    cell: OnceLock<Arc<ServiceMetrics>>,
}

impl LazyMetrics {
    fn get(&self) -> &ServiceMetrics {
        self.cell
            .get_or_init(|| self.telemetry.service_metrics(&self.service_id))
    }
}

/// Who a request is, for every error and telemetry record on its path.
/// The id is its service entry's: a request copies it only into the error
/// or event that names it.
#[derive(Clone)]
struct RequestMeta {
    request_id: u64,
    service_id: Arc<str>,
    class: QosClass,
}

impl RequestMeta {
    /// Records the request's deadline expiry.
    fn record_deadline_exceeded(&self, telemetry: &Telemetry) {
        telemetry.record(EventKind::DeadlineExceeded {
            service: self.service_id.to_string(),
            request_id: self.request_id,
            class: self.class,
        });
    }

    /// Records one deadline-exceeded event and builds the matching error.
    fn deadline_exceeded(&self, telemetry: &Telemetry) -> RuntimeError {
        self.record_deadline_exceeded(telemetry);
        RuntimeError::DeadlineExceeded {
            service_id: self.service_id.to_string(),
            class: self.class,
        }
    }

    /// How the request left admission, as the pipeline sees it: `Ok` with
    /// an in-flight slot counted for it, or the (recorded) client error.
    fn admitted(&self, telemetry: &Telemetry, outcome: AdmitOutcome) -> Result<(), RuntimeError> {
        match outcome {
            AdmitOutcome::Granted => Ok(()),
            AdmitOutcome::Shed(Shed { in_flight, queued }) => {
                telemetry.record(EventKind::RequestShed {
                    service: self.service_id.to_string(),
                    class: self.class,
                    in_flight,
                    queued,
                });
                Err(RuntimeError::Overloaded {
                    service_id: self.service_id.to_string(),
                    class: self.class,
                    queue_depth: queued,
                })
            }
            AdmitOutcome::Expired => Err(self.deadline_exceeded(telemetry)),
            AdmitOutcome::Shutdown => Err(RuntimeError::Shutdown),
        }
    }
}

/// A request after [`Gateway::resolve`]: every field settled, not yet
/// admitted.
struct Resolved {
    meta: RequestMeta,
    /// Effective deadline, relative and never zero. Each entry point
    /// anchors it (see [`Gateway::submit_async`]).
    deadline: Option<Duration>,
    /// Explicit requirement, else the live override; `None` judges the
    /// request against its class's default over the script's requirements.
    requirement: Option<Requirements>,
    payload: Vec<u8>,
    entry: Arc<ServiceEntry>,
}

/// What an admitted asynchronous request's continuation decided.
enum Continued<R, S> {
    /// Its deadline passed while it was queued: it never enters the engine.
    Expired(R),
    /// Preparing it failed.
    Failed(RuntimeError),
    /// Preparing it panicked: the panic resumes on whoever collects it.
    Panicked(PanicPayload),
    /// Prepared, for the engine.
    Submitted(S),
}

/// Decides an admitted asynchronous request's continuation on the loop
/// that runs it at `now`. The deadline is checked again because a
/// grant at the deadline's own instant can run before the cancel timer
/// due at it; `prepare` (planning, the market, the providers' selection
/// data) runs under `catch_unwind`, so a panic there fails its request
/// and never its loop.
fn continued<R, S>(
    now: Duration,
    deadline: Option<Duration>,
    request: R,
    prepare: impl FnOnce(R) -> Result<S, RuntimeError>,
) -> Continued<R, S> {
    if deadline.is_some_and(|abs| now >= abs) {
        return Continued::Expired(request);
    }
    match catch_unwind(AssertUnwindSafe(|| prepare(request))) {
        Ok(Ok(prepared)) => Continued::Submitted(prepared),
        Ok(Err(error)) => Continued::Failed(error),
        Err(panic) => Continued::Panicked(panic),
    }
}

/// Runs `resolve`, then releases an admitted request's `permit`: the
/// freed slot is handed over only after the handle resolves.
fn release_after<T>(permit: impl Sized, resolve: impl FnOnce() -> T) -> T {
    let resolved = resolve();
    drop(permit);
    resolved
}

/// What [`Gateway::prepare`] keeps back while the engine runs: everything
/// of the [`ServiceResponse`] that is known before execution.
struct Reply {
    meta: RequestMeta,
    /// The service's entry, for its telemetry handle.
    entry: Arc<ServiceEntry>,
    plan: Arc<SlotShared>,
    slot: u64,
    advisory: Option<QosAdvisory>,
}

impl Reply {
    /// Last pipeline stage: counts the finished request and assembles its
    /// response.
    fn respond(self, telemetry: &Telemetry, outcome: EngineOutcome) -> ServiceResponse {
        let meta = self.meta;
        if outcome.pruned == Some(PruneReason::DeadlineExceeded) {
            meta.record_deadline_exceeded(telemetry);
        }
        let (success, payload, votes) = match outcome.completion {
            Completion::First { success, payload } => (success, payload, None),
            Completion::Agreement {
                payload,
                votes,
                votes_cast,
                agreed,
            } => (agreed, payload, Some((votes, votes_cast))),
        };
        self.entry.metrics.get().count_request(
            meta.class,
            success,
            outcome.latency,
            outcome.cost,
            self.advisory.is_some(),
            votes,
        );
        ServiceResponse {
            request_id: meta.request_id,
            class: meta.class,
            success,
            payload,
            latency: outcome.latency,
            cost: outcome.cost,
            strategy: Arc::clone(&self.plan.strategy),
            strategy_text: self.plan.strategy_text.clone(),
            slot: self.slot,
            origin: self.plan.origin.clone(),
            advisory: self.advisory,
            votes,
            pruned: outcome.pruned,
            prune_detail: outcome.prune_detail,
        }
    }
}

/// An asynchronous request's one allocation besides its handle, made by
/// [`Gateway::submit_async`] and, once the request resolves, freed by the
/// thread that collects the result. The same box is in turn the admission
/// waker of a queued request, the continuation its event loop runs once it
/// is admitted, the callback the engine resolves it through, and its
/// result, which the handle keeps until the submitter collects it. A
/// flight dropped unresolved (a continuation a shut-down core discards, a
/// panic between admission and submission) fails its handle with
/// [`RuntimeError::Shutdown`], so [`RequestHandle::wait`] can never park
/// forever.
struct Flight {
    /// The handle it resolves; taken by the resolve, so the first one wins.
    handle: Option<Arc<Handoff<HandleResult>>>,
    stage: Stage,
}

/// Where a [`Flight`] is on its way.
enum Stage {
    /// Submitted: waits for admission, then for its loop's turn. Holds
    /// the gateway weakly, so a queued request does not keep it alive.
    Admitting {
        gateway: Weak<Gateway>,
        core: Arc<EventCore<'static>>,
        telemetry: Arc<Telemetry>,
        request: Resolved,
        /// The deadline, anchored at submission.
        deadline: Option<Duration>,
    },
    /// In the engine, holding its admission slot.
    Running {
        reply: Reply,
        telemetry: Arc<Telemetry>,
        permit: AdmissionPermit,
    },
    /// Its response or error, or the panic of a provider or of its
    /// preparation, to be resumed on the collecting thread.
    Resolved(std::thread::Result<Result<ServiceResponse, RuntimeError>>),
    /// Between two stages.
    Moved,
}

impl Flight {
    /// A resolved flight that resolves no handle.
    fn resolved(result: Result<ServiceResponse, RuntimeError>) -> Box<Flight> {
        Box::new(Flight {
            handle: None,
            stage: Stage::Resolved(Ok(result)),
        })
    }

    fn take(&mut self) -> Stage {
        std::mem::replace(&mut self.stage, Stage::Moved)
    }

    /// Stores `result` and resolves the handle with this box, returning
    /// the wake-up owed to a waiter parked on it.
    fn resolve(
        mut self: Box<Self>,
        result: std::thread::Result<Result<ServiceResponse, RuntimeError>>,
    ) -> Option<Waker> {
        self.stage = Stage::Resolved(result);
        let handle = self.handle.take()?;
        handle.resolve(self)
    }

    /// [`Flight::resolve`], waking the waiter at once: for resolves that
    /// do not run on an event loop's turn.
    fn finish(self: Box<Self>, result: std::thread::Result<Result<ServiceResponse, RuntimeError>>) {
        if let Some(waiter) = self.resolve(result) {
            waiter.wake();
        }
    }

    /// The result a resolved flight carries; a panic resumes here.
    fn into_result(mut self: Box<Self>) -> Result<ServiceResponse, RuntimeError> {
        match self.take() {
            Stage::Resolved(result) => {
                result.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }
            _ => unreachable!("a handle holds only resolved flights"),
        }
    }
}

impl OnAdmit for Flight {
    /// However the request leaves admission: admitted, it goes to the
    /// event loop; otherwise it resolves with the (recorded) error.
    fn fire(self: Box<Self>, outcome: AdmitOutcome) {
        let Stage::Admitting {
            core,
            telemetry,
            request,
            ..
        } = &self.stage
        else {
            unreachable!("a flight leaves admission once, before it runs")
        };
        match request.meta.admitted(telemetry, outcome) {
            Ok(()) => Arc::clone(core).post_task(self),
            Err(error) => self.finish(Ok(Err(error))),
        }
    }
}

impl Task for Flight {
    /// The admitted continuation, on an event-loop thread: prepares the
    /// request and submits it to the engine with this box as its `done`,
    /// or resolves it if it expired, failed or panicked on the way.
    fn run(mut self: Box<Self>) {
        let Stage::Admitting {
            gateway,
            telemetry,
            request,
            deadline,
            ..
        } = self.take()
        else {
            unreachable!("a flight runs once, once admitted")
        };
        let permit = request.entry.gate.permit();
        let Some(gateway) = gateway.upgrade() else {
            // The gateway is going.
            return release_after(permit, || self.finish(Ok(Err(RuntimeError::Shutdown))));
        };
        let now = gateway.clock.now();
        let result = match continued(now, deadline, request, |r| gateway.prepare(r)) {
            Continued::Submitted((mut spec, reply)) => {
                if let Some(abs) = deadline {
                    spec.budget = spec.budget.with_deadline(abs);
                }
                self.stage = Stage::Running {
                    reply,
                    telemetry,
                    permit,
                };
                // The waiter's wake goes back to the loop.
                spec.done = Done::Call(self);
                gateway.core.submit(spec, &*gateway.spawn);
                return;
            }
            Continued::Expired(request) => Ok(Err(request.meta.deadline_exceeded(&telemetry))),
            Continued::Failed(error) => Ok(Err(error)),
            Continued::Panicked(panic) => Err(panic),
        };
        release_after(permit, || self.finish(result));
    }
}

impl OnDone for Flight {
    /// The engine's result: assembles the response, resolves the handle,
    /// then frees the admission slot.
    fn done(mut self: Box<Self>, result: RequestResult) -> Option<Waker> {
        let Stage::Running {
            reply,
            telemetry,
            permit,
        } = self.take()
        else {
            unreachable!("only a running flight resolves through the engine")
        };
        let result = match result {
            RequestResult::Finished(outcome) => Ok(Ok(reply.respond(&telemetry, outcome))),
            RequestResult::Panicked(panic) => Err(panic),
            RequestResult::Shutdown => Ok(Err(RuntimeError::Shutdown)),
        };
        release_after(permit, || self.resolve(result))
    }
}

impl Drop for Flight {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.finish(Flight::resolved(Err(RuntimeError::Shutdown)));
        }
    }
}

/// The edge gateway.
///
/// # Examples
///
/// See the crate-level documentation and the `adaptive_temperature`
/// example for end-to-end usage; `tests/gateway.rs` exercises each
/// behaviour.
pub struct Gateway {
    market: Box<dyn Market>,
    registry: Arc<Registry>,
    collector: Arc<Collector>,
    clock: Arc<dyn Clock>,
    config: GatewayConfig,
    telemetry: Arc<Telemetry>,
    /// Runs the blocking leaves of every request, submitted blocking or
    /// not: eight persistent threads.
    pool: Arc<WorkerPool>,
    services: RwLock<HashMap<String, Arc<ServiceEntry>>>,
    next_request: AtomicU64,
    /// Shared event core draining every asynchronous request
    /// ([`Gateway::submit_async`]) as a state machine: leaves complete as
    /// clock events, continuations are heap frames, and
    /// [`GatewayConfig::event_loops`] threads step the whole gateway.
    core: Arc<EventCore<'static>>,
    /// Routes a blocking leaf of `core` to `pool`.
    spawn: Arc<dyn Fn(BlockingTask) + Send + Sync>,
    /// Event-loop threads, spawned lazily on the first `submit_async`,
    /// joined on drop.
    loops: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Set once `loops` holds a running loop: every later `submit_async`
    /// reads this instead of taking the mutex.
    loops_running: AtomicBool,
    /// [`EngineStats::blocking_cores_built`].
    blocking_cores_built: AtomicU64,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.config)
            .field("capabilities", &self.registry.capabilities())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Creates a gateway over a market with a fresh registry and collector,
    /// running on real time.
    #[must_use]
    pub fn new(market: Box<dyn Market>, config: GatewayConfig) -> Self {
        Gateway::with_clock(market, config, Arc::new(WallClock::new()))
    }

    /// As [`Gateway::new`], but every latency measurement and execution
    /// runs on `clock`. Pass the same shared
    /// [`VirtualClock`](crate::VirtualClock) as the registered providers
    /// for deterministic virtual-time tests.
    #[must_use]
    pub fn with_clock(
        market: Box<dyn Market>,
        config: GatewayConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let telemetry = Telemetry::new(Arc::clone(&clock), TELEMETRY_EVENTS);
        let pool = Arc::new(WorkerPool::new());
        let core = Arc::new(EventCore::new(
            Shared::Owned(Arc::clone(&clock)),
            Arc::default(),
        ));
        let spawn = Arc::new(crate::engine::pooled_spawner(&pool, &core, &clock));
        Gateway {
            market,
            registry: Arc::new(Registry::new()),
            collector: Arc::new(Collector::new(config.collector_window)),
            clock,
            pool,
            config,
            telemetry,
            services: RwLock::new(HashMap::new()),
            next_request: AtomicU64::new(1),
            core,
            spawn,
            loops: Mutex::new(Vec::new()),
            loops_running: AtomicBool::new(false),
            blocking_cores_built: AtomicU64::new(0),
        }
    }

    /// The device registry (devices register their microservices here).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The QoS collector.
    #[must_use]
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// The clock executions run on.
    #[must_use]
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The gateway's telemetry hub (counters, histograms, and the event
    /// ring — see [`Telemetry`]).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Submits a typed [`Request`] to its service.
    ///
    /// On the first invocation the script is fetched from the market and
    /// cached. Each slot boundary re-plans the strategy from collector
    /// data. Concurrent invocations of the same service execute in
    /// parallel (planning is serialized per service; execution is not),
    /// bounded by [`GatewayConfig::max_in_flight`] with class-aware
    /// queueing (see [`QosClass`]).
    ///
    /// Unset request fields resolve in order: request explicit value →
    /// service live override ([`Gateway::control`]) → gateway
    /// configuration → class default.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Generation`] if the request's own
    /// requirement is invalid (see [`Requirements::validate`]),
    /// [`RuntimeError::UnknownService`] if the market has no such
    /// script, [`RuntimeError::NoProvider`] if a capability has no
    /// registered provider, [`RuntimeError::Overloaded`] if the request
    /// was shed (queue full, or preempted out of its queue slot by a
    /// higher class), or an invalid-script/generation error.
    pub fn submit(&self, request: Request) -> Result<ServiceResponse, RuntimeError> {
        let request = self.resolve(request)?;
        // Admission first: it bounds everything the request does from here
        // on (planning included). Shedding here keeps an overloaded
        // service's queue — and the gateway's thread usage — bounded.
        let outcome = request
            .entry
            .gate
            .admit_blocking(request.meta.class, &self.clock);
        request.meta.admitted(&self.telemetry, outcome)?;
        let _permit = request.entry.gate.permit();
        let deadline = request.deadline;
        let (mut spec, reply) = self.prepare(request)?;
        if let Some(deadline) = deadline {
            spec.budget = spec
                .budget
                .with_deadline(self.clock.now().saturating_add(deadline));
        }
        // The caller's thread drives the walk: no hop to a loop thread.
        let outcome =
            crate::engine::drive(&self.pool, &self.clock, spec, &self.blocking_cores_built);
        Ok(reply.respond(&self.telemetry, outcome))
    }

    /// Submits a typed [`Request`] without blocking on its completion: the
    /// call returns a [`RequestHandle`] as soon as the request is admitted
    /// or queued, and the request itself runs as a state machine on the
    /// gateway's event loops ([`GatewayConfig::event_loops`]). Neither a
    /// queued nor an in-flight request holds a thread, so any number of
    /// concurrent requests cost one heap frame each, not one stack each.
    ///
    /// Field resolution, admission, planning, execution, and telemetry are
    /// the same code as [`Gateway::submit`], with two differences inherent
    /// to the asynchronous shape: the deadline is measured from submission
    /// (a request whose deadline expires while still queued fails with
    /// [`RuntimeError::DeadlineExceeded`] without ever executing), and
    /// the event loops, not the caller, drive the request — so errors
    /// after admission (shed by preemption, planning failure, shutdown)
    /// are delivered through [`RequestHandle::wait`] rather than this call,
    /// and a panic while the loop prepares the request resumes there.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Generation`] if the request's own
    /// requirement is invalid (see [`Requirements::validate`]),
    /// [`RuntimeError::DeadlineExceeded`] for a zero effective
    /// deadline, [`RuntimeError::Overloaded`] when the request is shed at
    /// submission, and [`RuntimeError::LoopSpawn`] when no event-loop
    /// thread could be started. All later failures surface through the
    /// handle.
    pub fn submit_async(self: &Arc<Self>, request: Request) -> Result<RequestHandle, RuntimeError> {
        let request = self.resolve(request)?;
        self.ensure_loops()?;
        let meta = request.meta.clone();
        let entry = Arc::clone(&request.entry);
        let deadline = request.deadline.map(|d| self.clock.now().saturating_add(d));
        let shared = Arc::new(Handoff::new(Arc::clone(&self.clock)));
        // The request's one allocation besides its handle: it waits in
        // the gate, runs on the loop and resolves the handle (`Flight`).
        let flight = Box::new(Flight {
            handle: Some(Arc::clone(&shared)),
            stage: Stage::Admitting {
                gateway: Arc::downgrade(self),
                core: Arc::clone(&self.core),
                telemetry: Arc::clone(&self.telemetry),
                request,
                deadline,
            },
        });
        let enqueue = |flight| (flight as WakerFn, ());
        match entry.gate.admit(meta.class, flight, enqueue) {
            // The slot is counted; run the continuation on the event loop
            // exactly like a deferred grant.
            Admission::Admitted(flight) => flight.fire(AdmitOutcome::Granted),
            Admission::Queued(ticket, ()) => {
                if let Some(abs) = deadline {
                    let cancel = move || entry.gate.cancel_ticket(meta.class, ticket);
                    self.core.schedule_task(abs, Box::new(cancel));
                }
            }
            // The handle is never returned: nobody is owed its result.
            Admission::Shed(shed, mut flight) => {
                flight.handle = None;
                meta.admitted(&self.telemetry, AdmitOutcome::Shed(shed))?;
            }
        }

        Ok(RequestHandle {
            request_id: meta.request_id,
            class: meta.class,
            shared,
        })
    }

    /// Pipeline stage 1: assigns the request id and resolves every unset
    /// field (request explicit value → service live override → gateway
    /// configuration → class default).
    ///
    /// A zero deadline can never be met: it is rejected here, counted as
    /// exactly one deadline-exceeded event — before admission, so it never
    /// occupies a queue slot or enters the engine (which would charge its
    /// started leaves before the first prune check), and before the
    /// service gets an entry, so such requests leave nothing behind. A
    /// requirement of the request's own that fails
    /// [`Requirements::validate`] is rejected here too, uncounted: the
    /// response's advisory would judge the slot against it.
    fn resolve(&self, request: Request) -> Result<Resolved, RuntimeError> {
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        let (service_id, class, deadline, requirement, payload) = request.into_parts();
        if let Some(requirement) = &requirement {
            planning::vet(requirement)?;
        }
        let known = self.services.read().get(&service_id).map(Arc::clone);
        // A service without an entry has no overrides in force.
        let overrides = known
            .as_ref()
            .map_or_else(ServiceOverrides::default, |entry| *entry.overrides.lock());
        let class = class.or(overrides.class).unwrap_or_default();
        let deadline = deadline
            .or(overrides.deadline)
            .or(self.config.request_deadline)
            .or_else(|| class.default_deadline());
        if deadline == Some(Duration::ZERO) {
            let meta = RequestMeta {
                request_id,
                service_id: service_id.into(),
                class,
            };
            return Err(meta.deadline_exceeded(&self.telemetry));
        }
        let entry = known.unwrap_or_else(|| self.service_entry(&service_id));
        Ok(Resolved {
            deadline,
            requirement: requirement.or(overrides.requirement),
            payload,
            meta: RequestMeta {
                request_id,
                service_id: Arc::clone(&entry.id),
                class,
            },
            entry,
        })
    }

    /// Pipeline stage 3 (after admission): plans the slot and builds what
    /// the engine executes (the entry point still anchors the budget's
    /// deadline and, if it does not drive the request itself, sets `done`)
    /// and what [`Reply::respond`] needs afterwards. Strategy, providers
    /// and policy are the slot's own, shared and validated once with the
    /// plan: a request copies and checks none of them.
    fn prepare(&self, request: Resolved) -> Result<(RequestSpec<'static>, Reply), RuntimeError> {
        let meta = request.meta;
        let planned = self.plan_slot(&meta.service_id, &request.entry)?;
        let plan = planned.plan;

        // The advisory judges the slot's estimated QoS against *this
        // request's* effective requirement (explicit → live override →
        // class default over the script's requirements), so a Scavenger
        // probe does not raise alarms calibrated for interactive clients.
        let requirement = request
            .requirement
            .unwrap_or_else(|| meta.class.default_requirement(&planned.base_requirements));
        let advisory = plan.estimated.and_then(|estimated| {
            let violations = requirement.violations(&estimated);
            (!violations.is_empty()).then_some(QosAdvisory {
                estimated,
                violations,
            })
        });
        let spec = RequestSpec {
            plan: Shared::Owned(Arc::clone(&plan) as Arc<dyn Plan>),
            request: Cow::Owned(Invocation::new(
                meta.request_id,
                String::from(&*meta.service_id),
                request.payload,
            )),
            budget: Budget::unlimited()
                .with_class(meta.class)
                .with_parent_flag(Arc::clone(&request.entry.evicted)),
            policy: PolicyState::new(plan.policy),
            // The response carries the total cost only.
            record_invocations: false,
            done: Done::Park,
        };
        let reply = Reply {
            meta,
            entry: request.entry,
            plan,
            slot: planned.slot,
            advisory,
        };
        Ok((spec, reply))
    }

    /// The gateway's runtime control plane: retunes a live service's
    /// traffic class, deadline, or requirement without re-planning its
    /// slot. Every applied override is recorded as exactly one
    /// [`EventKind::OverrideApplied`]
    /// telemetry event and takes effect at the next admission decision.
    #[must_use]
    pub fn control(&self) -> GatewayControl<'_> {
        GatewayControl { gateway: self }
    }

    /// Current occupancy counters of the gateway's worker pool (eight
    /// persistent threads): capacity, live/idle/running
    /// threads, jobs submitted and spilled.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Live occupancy of the event core: requests in flight, resident
    /// continuation frames (live and peak), the peaks of pending timers
    /// and of their distinct deadlines, and the size of one frame — the
    /// per-request memory unit that replaces a per-leg thread stack —
    /// plus the cores blocking submissions had to build.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            blocking_cores_built: self.blocking_cores_built.load(Ordering::Relaxed),
            ..self.core.stats()
        }
    }

    /// Spawns the event-loop threads on the first asynchronous submission.
    /// Each loop registers as a clock worker: while it processes events it
    /// pins virtual time, and when it idles it parks in
    /// [`Clock::sleep_until_or`], letting virtual time advance to the next
    /// completion.
    ///
    /// If the OS refuses a thread, the loops that did start keep running
    /// (and later submissions use them); with none running the call fails
    /// and the next submission tries again. Once a loop runs, the call is
    /// one atomic load.
    fn ensure_loops(&self) -> Result<(), RuntimeError> {
        if self.loops_running.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut loops = self.loops.lock();
        if !loops.is_empty() {
            return Ok(());
        }
        for i in 0..self.config.event_loops.max(1) {
            let core = Arc::clone(&self.core);
            let clock = Arc::clone(&self.clock);
            let spawn = Arc::clone(&self.spawn);
            let spawned = std::thread::Builder::new()
                .name(format!("qce-event-loop-{i}"))
                .spawn(move || {
                    let _worker = WorkerGuard::enter(&*clock);
                    core.run_loop(&*spawn);
                });
            match spawned {
                Ok(handle) => loops.push(handle),
                Err(_) if !loops.is_empty() => break,
                Err(error) => {
                    return Err(RuntimeError::LoopSpawn {
                        reason: error.to_string(),
                    })
                }
            }
        }
        self.loops_running.store(true, Ordering::Release);
        Ok(())
    }

    /// Returns the entry of `service_id`, inserting an uninitialised one if
    /// needed. Holds the global map lock only for the lookup.
    fn service_entry(&self, service_id: &str) -> Arc<ServiceEntry> {
        if let Some(entry) = self.services.read().get(service_id) {
            return Arc::clone(entry);
        }
        let mut services = self.services.write();
        let config = &self.config;
        Arc::clone(services.entry(service_id.to_string()).or_insert_with(|| {
            let id: Arc<str> = service_id.into();
            let metrics = Arc::new(LazyMetrics {
                telemetry: Arc::clone(&self.telemetry),
                service_id: Arc::clone(&id),
                cell: OnceLock::new(),
            });
            let sink = Arc::clone(&metrics);
            let depth_sink = Box::new(move |class, depth, total| {
                sink.get().count_queue_depth(class, depth, total);
            });
            Arc::new(ServiceEntry {
                id,
                cell: Mutex::new(None),
                gate: AdmissionGate::new(config.max_in_flight, config.admission_queue, depth_sink),
                overrides: Mutex::new(ServiceOverrides::default()),
                evicted: Arc::new(AtomicBool::new(false)),
                metrics,
            })
        }))
    }

    /// Device churn: a provider left the environment mid-run. It is
    /// deregistered and its collector window is reset (stale observations
    /// must not outlive the device — when it later re-joins, its history
    /// starts fresh). Requests already holding the provider keep their
    /// `Arc` and run to completion per Assumption 2; subsequent slots
    /// re-resolve providers and will no longer select it.
    ///
    /// Returns `true` if the provider was registered. Emits an
    /// [`EventKind::ProviderLeft`] marker
    /// only when something was actually removed, so repeated departures
    /// are not double-counted.
    pub fn provider_left(&self, provider_id: &str) -> bool {
        let removed = self.registry.deregister(provider_id);
        if removed {
            self.collector.reset(provider_id);
            self.telemetry.record(EventKind::ProviderLeft {
                provider: provider_id.to_string(),
            });
        }
        removed
    }

    /// Device churn: a provider joined (or re-joined) the environment. It
    /// becomes eligible at the next provider resolution — in-flight
    /// requests keep the providers their plan resolved. The collector
    /// window is reset so decisions about the re-joined device start from
    /// its advertised prior rather than pre-departure history.
    pub fn provider_joined(&self, provider: Arc<dyn Provider>) {
        let id = provider.id().to_string();
        self.collector.reset(&id);
        self.registry.register(provider);
        self.telemetry
            .record(EventKind::ProviderRejoined { provider: id });
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // Queued async admissions first: nobody will ever grant them, so
        // their wakers fail the handles with `Shutdown` instead of leaving
        // waiters parked forever.
        for entry in self.services.get_mut().values() {
            entry.gate.shutdown();
        }
        // Then the core: in-flight async requests resolve with `Shutdown`,
        // the loop threads observe the flag and exit, and blocking leaves
        // still running on the pool release their orphaned clock slots when
        // they post into the shut-down core.
        self.core.shutdown();
        let current = std::thread::current().id();
        for handle in self.loops.lock().drain(..) {
            // `submit_async`'s task holds the gateway for the length of
            // `prepare`; if the caller's last `Arc` went meanwhile, this
            // runs on a loop thread, which cannot join itself — it has
            // seen the flag and exits when the task returns. Detach it.
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    mod explore;
    mod lock_holds;

    use super::*;
    use crate::fleet::{FleetConfig, GatewayFleet};
    use crate::market::InMemoryMarket;

    /// Bugfix regression: a request rejected before planning used to leave
    /// its empty `ServiceEntry` in the map for ever, so a stream of
    /// dead-on-arrival requests for made-up services grew it without
    /// bound. Through either entry point, directly or through a fleet, a
    /// rejected request must leave nothing behind — and must not start the
    /// event loops.
    #[test]
    fn requests_rejected_in_resolve_leave_no_service_entry() {
        let ghost = |i: usize| Request::new(format!("ghost-{i}")).deadline(Duration::ZERO);
        let gateway = Arc::new(Gateway::new(
            Box::new(InMemoryMarket::new()),
            GatewayConfig::default(),
        ));
        for i in 0..16 {
            assert!(matches!(
                gateway.submit(ghost(i)),
                Err(RuntimeError::DeadlineExceeded { .. })
            ));
            assert!(matches!(
                gateway.submit_async(ghost(i)),
                Err(RuntimeError::DeadlineExceeded { .. })
            ));
        }
        assert!(gateway.services.read().is_empty());
        assert!(gateway.loops.lock().is_empty(), "no loop thread spawned");

        let fleet = GatewayFleet::new(Arc::new(InMemoryMarket::new()), FleetConfig::default());
        for i in 0..16 {
            assert!(fleet.submit(ghost(i)).is_err());
            assert!(fleet.submit_async(ghost(i)).is_err());
        }
        for shard in fleet.shards() {
            assert!(shard.gateway().services.read().is_empty());
        }
    }
}
