//! Rigs: generated inputs wired into a gateway or a fleet through the
//! public APIs of `qce-runtime`, plus the stamping wrappers the traced run
//! puts around providers, the market and the telemetry sink.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use qce_runtime::{
    Clock, EventKind, FaultPlan, FaultyProvider, FleetConfig, Gateway, GatewayConfig, GatewayFleet,
    InMemoryMarket, Invocation, InvokeError, Market, Provider, Request, RequestHandle,
    RuntimeError, ServiceResponse, ServiceScript, SimulatedProvider, Telemetry, VirtualClock,
    WallClock,
};

use crate::spans::{current_parent, Span, Tracer};

/// SplitMix64: the only randomness in the benchmark. Inputs are a pure
/// function of the seed; nothing is drawn while a run is being timed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One simulated device hosting one microservice.
#[derive(Debug, Clone)]
pub struct DeviceInput {
    pub id: String,
    pub capability: String,
    pub latency: Duration,
    pub cost: f64,
    pub reliability: f64,
    /// Clock-window faults applied on top (a [`FaultyProvider`]).
    pub plan: Option<FaultPlan>,
}

/// Everything a rig is built from: a pure function of workload and seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub scripts: Vec<ServiceScript>,
    pub devices: Vec<DeviceInput>,
}

/// Counters and spans the stamping wrappers write to.
#[derive(Debug)]
pub struct Hooks {
    pub tracer: Tracer,
    /// Request-key base per service: request ids are per gateway, so a
    /// fleet's requests are keyed `base(shard) + request_id`.
    pub key_base: OnceLock<HashMap<String, u64>>,
    pub fetches: AtomicU64,
    pub replans: AtomicU64,
    pub synthesis_ns: AtomicU64,
}

impl Hooks {
    pub fn new(span_limit: usize) -> Arc<Self> {
        Arc::new(Hooks {
            tracer: Tracer::new(span_limit),
            key_base: OnceLock::new(),
            fetches: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            synthesis_ns: AtomicU64::new(0),
        })
    }

    /// The request key spans of `service`'s request `request_id` share.
    pub fn request_key(&self, service: &str, request_id: u64) -> u64 {
        let base = self
            .key_base
            .get()
            .and_then(|bases| bases.get(service))
            .copied()
            .unwrap_or(0);
        base + request_id
    }

    /// Streams the gateway's telemetry events into counters and spans.
    pub fn install_sink(self: &Arc<Self>, telemetry: &Telemetry) {
        let hooks = Arc::clone(self);
        telemetry.set_sink(move |event| {
            if let EventKind::SlotReplanned { elapsed, .. } = &event.kind {
                hooks.replans.fetch_add(1, Ordering::Relaxed);
                let elapsed_ns = elapsed.as_nanos() as u64;
                if elapsed_ns > 0 {
                    hooks.synthesis_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
                    // The sink runs right after the search returns, on the
                    // thread that planned.
                    let end_ns = hooks.tracer.now_ns();
                    hooks.tracer.record(Span {
                        name: "generator.synthesis",
                        start_ns: end_ns.saturating_sub(elapsed_ns),
                        end_ns,
                        parent: current_parent(),
                        request: 0,
                        clock_ns: event.at.as_nanos() as u64,
                    });
                }
            }
        });
    }
}

/// A [`Provider`] that delegates every method and stamps each leaf call.
struct StampProvider {
    inner: Arc<dyn Provider>,
    hooks: Arc<Hooks>,
}

impl StampProvider {
    fn stamp<R>(
        &self,
        name: &'static str,
        request: &Invocation,
        clock: Option<&dyn Clock>,
        call: impl FnOnce() -> R,
    ) -> R {
        if self.hooks.tracer.is_paused() {
            return call();
        }
        let clock_ns = clock.map_or(0, |clock| clock.now().as_nanos() as u64);
        let start_ns = self.hooks.tracer.now_ns();
        let result = call();
        let end_ns = self.hooks.tracer.now_ns();
        self.hooks.tracer.record(Span {
            name,
            start_ns,
            end_ns,
            parent: current_parent(),
            // The gateway puts the service id in the invocation's
            // capability field.
            request: self
                .hooks
                .request_key(&request.capability, request.request_id),
            clock_ns,
        });
        result
    }
}

impl Provider for StampProvider {
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
        self.stamp("provider.invoke", request, None, || {
            self.inner.invoke(request)
        })
    }

    fn try_timed_invoke(
        &self,
        request: &Invocation,
        clock: &dyn Clock,
    ) -> Option<(Duration, Result<Vec<u8>, InvokeError>)> {
        self.stamp("provider.try_timed_invoke", request, Some(clock), || {
            self.inner.try_timed_invoke(request, clock)
        })
    }
}

/// A [`Market`] that delegates and stamps every `fetch`.
struct StampMarket {
    inner: InMemoryMarket,
    hooks: Arc<Hooks>,
}

impl Market for StampMarket {
    fn fetch(&self, service_id: &str) -> Result<ServiceScript, RuntimeError> {
        self.hooks.fetches.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.hooks.tracer.now_ns();
        let fetched = self.inner.fetch(service_id);
        let end_ns = self.hooks.tracer.now_ns();
        self.hooks.tracer.record(Span {
            name: "market.fetch",
            start_ns,
            end_ns,
            parent: current_parent(),
            request: 0,
            clock_ns: 0,
        });
        fetched
    }

    fn service_ids(&self) -> Vec<String> {
        self.inner.service_ids()
    }
}

/// What requests are submitted to: one gateway, or a sharded fleet.
#[derive(Debug)]
pub enum Front {
    Single(Arc<Gateway>),
    Fleet(Box<GatewayFleet>),
}

impl Front {
    pub fn submit(&self, request: Request) -> Result<ServiceResponse, RuntimeError> {
        match self {
            Front::Single(gateway) => gateway.submit(request),
            Front::Fleet(fleet) => fleet.submit(request),
        }
    }

    pub fn submit_async(&self, request: Request) -> Result<RequestHandle, RuntimeError> {
        match self {
            Front::Single(gateway) => gateway.submit_async(request),
            Front::Fleet(fleet) => fleet.submit_async(request),
        }
    }

    pub fn end_slot(&self, service_id: &str) {
        match self {
            Front::Single(gateway) => gateway.end_slot(service_id),
            Front::Fleet(fleet) => fleet.end_slot(service_id),
        }
    }

    /// Every gateway behind this front (one per shard).
    pub fn gateways(&self) -> Vec<Arc<Gateway>> {
        match self {
            Front::Single(gateway) => vec![Arc::clone(gateway)],
            Front::Fleet(fleet) => fleet
                .shards()
                .iter()
                .map(|shard| Arc::clone(shard.gateway()))
                .collect(),
        }
    }

    fn register(&self, provider: Arc<dyn Provider>) {
        match self {
            Front::Single(gateway) => gateway.registry().register(provider),
            Front::Fleet(fleet) => fleet.register(provider),
        }
    }
}

/// Which clock the rig runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    Virtual,
    Wall,
}

/// How to wire a rig.
#[derive(Debug, Clone)]
pub struct RigOptions {
    pub clock: ClockKind,
    pub config: GatewayConfig,
    /// `Some(n)`: a [`GatewayFleet`] of `n` shards; `None`: one gateway.
    pub shards: Option<usize>,
    /// Stamping wrappers and telemetry sink (the traced run only).
    pub hooks: Option<Arc<Hooks>>,
}

/// A wired testbed.
#[derive(Debug)]
pub struct Rig {
    pub clock: Arc<dyn Clock>,
    pub front: Front,
    pub scripts: Vec<ServiceScript>,
    /// The simulated devices by provider id, for turning knobs mid-run.
    pub devices: HashMap<String, Arc<SimulatedProvider>>,
    /// The providers as registered without stamping, in input order.
    providers: Vec<Arc<dyn Provider>>,
}

impl Rig {
    pub fn build(inputs: &Inputs, options: &RigOptions) -> Rig {
        let clock: Arc<dyn Clock> = match options.clock {
            ClockKind::Virtual => Arc::new(VirtualClock::new()),
            ClockKind::Wall => Arc::new(WallClock::new()),
        };
        let market = InMemoryMarket::new();
        for script in &inputs.scripts {
            market
                .publish(script.clone())
                .unwrap_or_else(|e| panic!("generated script is invalid: {e}"));
        }
        let front = match (options.shards, &options.hooks) {
            (None, None) => Front::Single(Arc::new(Gateway::with_clock(
                Box::new(market),
                options.config,
                Arc::clone(&clock),
            ))),
            (None, Some(hooks)) => Front::Single(Arc::new(Gateway::with_clock(
                Box::new(StampMarket {
                    inner: market,
                    hooks: Arc::clone(hooks),
                }),
                options.config,
                Arc::clone(&clock),
            ))),
            (Some(shards), hooks) => {
                let backend: Arc<dyn Market> = match hooks {
                    None => Arc::new(market),
                    Some(hooks) => Arc::new(StampMarket {
                        inner: market,
                        hooks: Arc::clone(hooks),
                    }),
                };
                let config = FleetConfig::default()
                    .shards(shards)
                    .script_ttl(Duration::from_secs(3600))
                    .gateway(options.config);
                Front::Fleet(Box::new(GatewayFleet::with_clock(
                    backend,
                    config,
                    Arc::clone(&clock),
                )))
            }
        };

        let gateways = front.gateways();
        // A fault plan counts its window hits on one telemetry hub; on a
        // fleet that is the first shard's, which no check reads.
        let fault_telemetry = Arc::clone(gateways[0].telemetry());
        let mut devices = HashMap::new();
        let mut providers: Vec<Arc<dyn Provider>> = Vec::new();
        for input in &inputs.devices {
            let device = SimulatedProvider::builder(input.id.clone(), input.capability.clone())
                .latency(input.latency)
                .cost(input.cost)
                .reliability(input.reliability)
                .response(input.id.as_bytes().to_vec())
                .clock(Arc::clone(&clock))
                .build();
            devices.insert(input.id.clone(), Arc::clone(&device));
            providers.push(match &input.plan {
                Some(plan) => FaultyProvider::with_telemetry(
                    device,
                    Arc::clone(&clock),
                    plan.clone(),
                    Arc::clone(&fault_telemetry),
                ),
                None => device,
            });
        }

        let rig = Rig {
            clock,
            front,
            scripts: inputs.scripts.clone(),
            devices,
            providers,
        };
        match &options.hooks {
            Some(hooks) => {
                rig.register_stamped(hooks);
                for gateway in &gateways {
                    hooks.install_sink(gateway.telemetry());
                }
            }
            None => {
                for provider in &rig.providers {
                    rig.front.register(Arc::clone(provider));
                }
            }
        }
        rig
    }

    /// (Re-)registers every provider behind a stamping wrapper. Plans
    /// resolve providers when a slot is planned, so on a live rig the
    /// wrappers take effect at each service's next slot.
    pub fn register_stamped(&self, hooks: &Arc<Hooks>) {
        // Set once per hooks object; a second rig sharing the hooks has
        // the same routing, so losing the race to set it is harmless.
        let _ = hooks.key_base.set(self.key_bases());
        for provider in &self.providers {
            self.front.register(Arc::new(StampProvider {
                inner: Arc::clone(provider),
                hooks: Arc::clone(hooks),
            }));
        }
    }

    fn key_bases(&self) -> HashMap<String, u64> {
        self.scripts
            .iter()
            .map(|script| {
                let shard = self.shard_of(&script.service_id);
                (script.service_id.clone(), (shard as u64 + 1) << 40)
            })
            .collect()
    }

    /// The (unstamped) provider of each of `script`'s microservices, in
    /// script order. Every capability has exactly one device on these
    /// rigs, so this is what the gateway's provider resolution picks.
    pub fn providers_of(&self, script: &ServiceScript) -> Vec<Arc<dyn Provider>> {
        script
            .microservices
            .iter()
            .map(|spec| {
                self.providers
                    .iter()
                    .find(|p| p.capability() == spec.capability)
                    .map(Arc::clone)
                    .unwrap_or_else(|| panic!("no device for capability {}", spec.capability))
            })
            .collect()
    }

    /// The shard that owns `service_id` (0 on a single gateway).
    pub fn shard_of(&self, service_id: &str) -> u32 {
        match &self.front {
            Front::Single(_) => 0,
            Front::Fleet(fleet) => fleet.route(service_id).unwrap_or(0),
        }
    }
}
