//! The five workloads: generated inputs, the client loop that drives each,
//! and the output checks that decide whether a run was correct.
//!
//! Every workload is a closed loop with one generator thread: an edge
//! client blocks on the gateway for its reply, and a virtual-clock rig has
//! no arrival schedule to keep. A run is a sequence of *segments* of a
//! fixed request count, so that per-segment numbers are comparable and a
//! reported timing can be the median over segments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qce_runtime::{
    assumed_env, FaultEvent, FaultKind, FaultPlan, GatewayConfig, MsSpec, PruneReason, QosClass,
    Request, RuntimeError, ServiceResponse, ServiceScript, WorkerGuard,
};
use qce_strategy::{EnvQos, Generator, Qos, Requirements, UtilityIndex};

use crate::calibrate::Calibrator;
use crate::rig::{ClockKind, DeviceInput, Hooks, Inputs, Rig, RigOptions, Rng};
use crate::spans::{Span, NO_PARENT};
use crate::stats::percentile;

/// Names and reasons, in `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "steady_blocking",
        "blocking submit on 8 small services with cached plans: the per-request pipeline does all the work, the planner almost none",
    ),
    (
        "async_window",
        "same layers driven through submit_async in pinned windows of 1000: loop thread, deep timer heap, per-request handles and wake-ups",
    ),
    (
        "replan_churn",
        "slot size 25 with half the services' environment stepped every slot: strategy synthesis does over 80% of the work",
    ),
    (
        "fleet_classed_burst",
        "4-shard fleet, bounded admission, four traffic classes in bursts: admission gate, router, TTL market and class telemetry carry the load",
    ),
    (
        "wall_pingpong",
        "production WallClock, one client doing submit_async then wait on a zero-latency leg: the wake-up chain with nothing to hide behind, and no VirtualClock anywhere",
    ),
];

/// What identifies one reply for the oracle comparison: strategy text,
/// gateway-clock latency, and cost bits.
pub type Tuple = (String, Duration, u64);

/// Counts outcomes and keeps each service's first replies for the oracle
/// comparison.
#[derive(Debug)]
pub struct Observer {
    requirements: Vec<Requirements>,
    prefix_len: usize,
    /// Gateway latency is real time on a wall-clock rig and cannot repeat.
    compare_latency: bool,
    pub prefix: Vec<Vec<Tuple>>,
    pub attempted: u64,
    pub satisfied: u64,
    pub errors: u64,
    pub sheds: u64,
    pub deadline_misses: u64,
    pub unsuccessful: u64,
    pub first_failure: Option<String>,
}

impl Observer {
    pub fn new(scripts: &[ServiceScript], prefix_len: usize, compare_latency: bool) -> Self {
        Observer {
            requirements: scripts.iter().map(|s| s.requirements).collect(),
            prefix_len,
            compare_latency,
            prefix: vec![Vec::new(); scripts.len()],
            attempted: 0,
            satisfied: 0,
            errors: 0,
            sheds: 0,
            deadline_misses: 0,
            unsuccessful: 0,
            first_failure: None,
        }
    }

    /// Replies that count against the run: errors, sheds, deadline misses
    /// and replies no microservice succeeded for.
    pub fn failed(&self) -> u64 {
        self.errors + self.sheds + self.deadline_misses + self.unsuccessful
    }

    pub fn reply(&mut self, service: usize, reply: &Result<ServiceResponse, RuntimeError>) {
        self.attempted += 1;
        match reply {
            Ok(response) => self.ok(service, response),
            Err(error) => {
                match error {
                    RuntimeError::Overloaded { .. } => self.sheds += 1,
                    RuntimeError::DeadlineExceeded { .. } => self.deadline_misses += 1,
                    _ => self.errors += 1,
                }
                self.first_failure
                    .get_or_insert_with(|| format!("service #{service}: {error}"));
            }
        }
    }

    fn ok(&mut self, service: usize, response: &ServiceResponse) {
        if response.pruned == Some(PruneReason::DeadlineExceeded) {
            self.deadline_misses += 1;
            self.first_failure.get_or_insert_with(|| {
                format!(
                    "service #{service}: request {} missed its deadline",
                    response.request_id
                )
            });
        } else if !response.success {
            self.unsuccessful += 1;
            self.first_failure.get_or_insert_with(|| {
                format!(
                    "service #{service}: request {} did not succeed",
                    response.request_id
                )
            });
        } else {
            // The effective requirement: no request here carries its own,
            // and no override is set, so it is the class default.
            let requirement = response
                .class
                .default_requirement(&self.requirements[service]);
            let latency_ms = response.latency.as_secs_f64() * 1e3;
            if latency_ms <= requirement.latency && response.cost <= requirement.cost {
                self.satisfied += 1;
            }
        }
        let prefix = &mut self.prefix[service];
        if prefix.len() < self.prefix_len {
            let latency = if self.compare_latency {
                response.latency
            } else {
                Duration::ZERO
            };
            prefix.push((
                response.strategy_text.clone(),
                latency,
                response.cost.to_bits(),
            ));
        }
    }

    /// Every service has as many first replies as the oracle check
    /// compares.
    pub fn prefix_full(&self) -> bool {
        self.prefix.iter().all(|p| p.len() >= self.prefix_len)
    }

    /// Compares this run's per-service multiset of first replies with the
    /// oracle's.
    pub fn matches_oracle(&self, oracle: &Observer) -> Result<(), String> {
        for (service, (mine, theirs)) in self.prefix.iter().zip(&oracle.prefix).enumerate() {
            let mut mine = mine.clone();
            let mut theirs = theirs.clone();
            mine.sort();
            theirs.sort();
            if mine.len() < self.prefix_len {
                return Err(format!(
                    "service #{service}: only {} replies to compare, expected {}",
                    mine.len(),
                    self.prefix_len
                ));
            }
            if mine != theirs {
                let differ = mine
                    .iter()
                    .zip(&theirs)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("got {a:?}, oracle {b:?}"))
                    .unwrap_or_else(|| {
                        format!(
                            "{} replies against the oracle's {}",
                            mine.len(),
                            theirs.len()
                        )
                    });
                return Err(format!(
                    "service #{service}: replies diverge from the sequential oracle: {differ}"
                ));
            }
        }
        Ok(())
    }
}

/// How a segment's requests are issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    /// `Gateway::submit`, one at a time.
    Blocking,
    /// `submit_async` in windows submitted at one pinned clock instant,
    /// then waited in submission order.
    Windows { window: usize },
}

/// A workload's shape at one scale.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    clock: ClockKind,
    drive: Drive,
    config: GatewayConfig,
    shards: Option<usize>,
    /// Requests per segment.
    pub segment: usize,
    /// Requests issued before the timed phase (also by the oracle).
    warm_up: usize,
    /// Replies per service compared with the oracle.
    pub oracle_prefix: usize,
    /// `end_slot` on every service after each window (the fleet's bursts).
    end_slot_between_windows: bool,
    /// The generator steps churned services' environment every slot.
    slot_stepped: bool,
    /// Requests carry a class: Critical, Interactive, Bulk, Scavenger in
    /// turn.
    classed: bool,
}

/// The shape of `workload`, with request counts divided by `divisor` for a
/// quick run. `None` for an unknown name.
pub fn shape(workload: &str, divisor: usize) -> Option<Shape> {
    let scaled = |count: usize, step: usize| ((count / divisor).max(step) / step) * step;
    let base = Shape {
        name: "",
        clock: ClockKind::Virtual,
        drive: Drive::Blocking,
        config: GatewayConfig::builder().plan_cache(true).build(),
        shards: None,
        segment: 0,
        warm_up: 0,
        oracle_prefix: 0,
        end_slot_between_windows: false,
        slot_stepped: false,
        classed: false,
    };
    Some(match workload {
        "steady_blocking" => Shape {
            name: "steady_blocking",
            segment: scaled(20_000, 8),
            warm_up: 10_000,
            oracle_prefix: 250,
            ..base
        },
        "async_window" => {
            let window = scaled(1_000, 8);
            Shape {
                name: "async_window",
                drive: Drive::Windows { window },
                config: GatewayConfig::builder().event_loops(1).build(),
                segment: 20 * window,
                warm_up: 8_000,
                oracle_prefix: 250,
                ..base
            }
        }
        "replan_churn" => Shape {
            name: "replan_churn",
            // 24 slots of 25 requests on each of 6 services.
            segment: scaled(3_600, CHURN_SERVICES * CHURN_SLOT as usize),
            warm_up: 2 * CHURN_SERVICES * CHURN_SLOT as usize,
            oracle_prefix: 100,
            slot_stepped: true,
            ..base
        },
        "fleet_classed_burst" => {
            let window = scaled(10_000, FLEET_SERVICES);
            Shape {
                name: "fleet_classed_burst",
                drive: Drive::Windows { window },
                config: GatewayConfig::builder()
                    .plan_cache(true)
                    .max_in_flight(8)
                    .admission_queue(256)
                    .build(),
                shards: Some(4),
                segment: 2 * window,
                warm_up: 100 * FLEET_SERVICES,
                oracle_prefix: 50,
                end_slot_between_windows: true,
                classed: true,
                ..base
            }
        }
        "wall_pingpong" => Shape {
            name: "wall_pingpong",
            clock: ClockKind::Wall,
            drive: Drive::Windows { window: 1 },
            config: GatewayConfig::builder().event_loops(1).build(),
            segment: scaled(5_000, 1),
            warm_up: 2_000,
            oracle_prefix: 250,
            ..base
        },
        _ => return None,
    })
}

impl Shape {
    /// The same workload with another number of event loops or shards —
    /// the per-layer ratio probes.
    pub fn with_event_loops(mut self, loops: usize) -> Self {
        let mut config = self.config;
        config.event_loops = loops;
        self.config = config;
        self
    }

    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = self.shards.map(|_| shards);
        self
    }

    /// True on `replan_churn`, whose generator steps the environment at
    /// slot boundaries and samples re-plans for re-derivation.
    pub fn steps_environment(&self) -> bool {
        self.slot_stepped
    }

    pub fn is_fleet(&self) -> bool {
        self.shards.is_some()
    }

    /// True where a request's client-side latency is its own service time
    /// (blocking submits, windows of one): microseconds, which a stall
    /// somewhere in the segment does not touch. In a wider window a
    /// latency is mostly the wait behind the requests submitted before it:
    /// milliseconds, stalls included.
    pub fn latency_is_service_time(&self) -> bool {
        self.window() <= 1
    }

    pub fn is_windowed(&self) -> bool {
        matches!(self.drive, Drive::Windows { .. })
    }

    pub fn window(&self) -> usize {
        match self.drive {
            Drive::Windows { window } => window,
            _ => 1,
        }
    }

    /// The most requests one gateway executes at once: the window, capped
    /// by the in-flight limit on each of the `services` a gateway owns.
    pub fn peak_in_flight(&self, services: usize) -> usize {
        match self.config.max_in_flight {
            0 => self.window(),
            limit => self.window().min(limit * services),
        }
    }

    pub fn on_virtual_clock(&self) -> bool {
        self.clock == ClockKind::Virtual
    }

    /// The generated inputs for `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x51C0_FFEE);
        match self.name {
            "steady_blocking" => small_services(&mut rng, 8, SmallKind::Flapped),
            "async_window" => small_services(&mut rng, 8, SmallKind::RaceWithDeadLeg),
            "replan_churn" => churn_services(&mut rng),
            "fleet_classed_burst" => fleet_services(&mut rng),
            _ => small_services(&mut rng, 1, SmallKind::ZeroLatency),
        }
    }
}

const FOREVER_SLOT: u32 = 1 << 30;

fn ms_name(index: usize) -> String {
    char::from(b'a' + index as u8).to_string()
}

fn qos(cost: f64, latency_ms: f64, reliability: f64) -> Qos {
    Qos::new(cost, latency_ms, reliability).expect("generated QoS is in domain")
}

fn requirements(cost: f64, latency_ms: f64, reliability: f64) -> Requirements {
    Requirements::new(cost, latency_ms, reliability).expect("generated requirements are valid")
}

/// A crash window of `down` every `period`, first at `phase`, for
/// `windows` periods. Keyed on clock time, so what a request meets is a
/// function of the (virtual) instant it runs at and of nothing drawn.
fn flap_plan(phase: Duration, period: Duration, down: Duration, windows: u32) -> FaultPlan {
    let events = (0..windows)
        .flat_map(|k| {
            let onset = phase + period * k;
            [
                FaultEvent {
                    at: onset,
                    kind: FaultKind::Crash,
                },
                FaultEvent {
                    at: onset + down,
                    kind: FaultKind::Recover,
                },
            ]
        })
        .collect();
    FaultPlan::new(events)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SmallKind {
    /// Mixed Seq/Par default strategies, slot size 1000, the fast leg of
    /// each service crashed 10 s of every 40 s of virtual time.
    Flapped,
    /// `a*b*c` for ever (the slot never ends), leg `a` crashed from t = 0:
    /// three timers per request and a time-independent outcome.
    RaceWithDeadLeg,
    /// Zero-latency legs, `a*b-c` for ever.
    ZeroLatency,
}

/// A seeded permutation of `roles`. Every workload's devices are a fixed
/// multiset of (latency, cost) roles and the seed only decides which
/// microservice plays which, when fault windows start and in what order
/// things are named — so every seed asks for the same amount of work, and
/// two seeds' results can be compared.
fn dealt<T: Copy, const N: usize>(rng: &mut Rng, roles: [T; N]) -> [T; N] {
    let mut dealt = roles;
    rng.shuffle(&mut dealt);
    dealt
}

/// `count` services of three microservices, each with its own devices.
fn small_services(rng: &mut Rng, count: usize, kind: SmallKind) -> Inputs {
    const SHAPES: [&str; 4] = ["a-b-c", "a*b*c", "a*b-c", "a-b*c"];
    /// (latency ms, cost): fast, middling, slow and dear.
    const ROLES: [(u64, f64); 3] = [(2, 10.0), (4, 5.0), (8, 20.0)];
    let mut scripts = Vec::new();
    let mut devices = Vec::new();
    for s in 0..count {
        let roles = dealt(rng, ROLES);
        let mut specs = Vec::new();
        for (m, &(role_latency_ms, cost)) in roles.iter().enumerate() {
            let name = ms_name(m);
            let capability = format!("cap-{s}-{name}");
            let latency_ms = if kind == SmallKind::ZeroLatency {
                0
            } else {
                role_latency_ms
            };
            let plan = match kind {
                SmallKind::Flapped if role_latency_ms == ROLES[0].0 => Some(flap_plan(
                    Duration::from_millis(rng.below(40_000)),
                    Duration::from_secs(40),
                    Duration::from_secs(10),
                    2_000,
                )),
                SmallKind::RaceWithDeadLeg if m == 0 => Some(FaultPlan::new(vec![FaultEvent {
                    at: Duration::ZERO,
                    kind: FaultKind::Crash,
                }])),
                _ => None,
            };
            specs.push(MsSpec {
                name,
                capability: capability.clone(),
                prior: qos(cost, role_latency_ms as f64, 0.9),
            });
            devices.push(DeviceInput {
                id: format!("dev-{s}-{m}/{capability}"),
                capability,
                latency: Duration::from_millis(latency_ms),
                cost,
                reliability: 1.0,
                plan,
            });
        }
        let mut script =
            ServiceScript::new(format!("svc-{s:02}"), specs, requirements(35.0, 16.0, 0.9));
        match kind {
            SmallKind::Flapped => {
                script.default_strategy = Some(SHAPES[s % SHAPES.len()].into());
                script.slot_size = 1_000;
            }
            SmallKind::RaceWithDeadLeg => {
                script.default_strategy = Some("a*b*c".into());
                script.slot_size = FOREVER_SLOT;
            }
            SmallKind::ZeroLatency => {
                script.default_strategy = Some("a*b-c".into());
                script.slot_size = FOREVER_SLOT;
            }
        }
        scripts.push(script);
    }
    Inputs { scripts, devices }
}

const CHURN_SERVICES: usize = 6;
const CHURN_SLOT: u32 = 25;

/// Whether the generator steps service `s`'s environment every slot.
fn churned(service: usize) -> bool {
    service % 2 == 1
}

/// Six services, four of five microservices and two of six: cheap and slow
/// through dear and fast, so no single one meets the requirement. The odd
/// services are churned: legs other than the first flap, each on its own
/// period, and the generator steps the first leg's latency at every slot
/// boundary.
fn churn_services(rng: &mut Rng) -> Inputs {
    /// (latency ms, cost, flap period ms, crashed tenths of the period).
    const ANCHOR: (u64, f64, u64, u32) = (20, 30.0, 0, 0);
    const FIVE: [(u64, f64, u64, u32); 4] = [
        (36, 10.0, 5_000, 2),
        (28, 20.0, 7_000, 3),
        (12, 50.0, 9_000, 4),
        (8, 80.0, 11_000, 3),
    ];
    const SIXTH: (u64, f64, u64, u32) = (16, 40.0, 13_000, 2);
    let mut scripts = Vec::new();
    let mut devices = Vec::new();
    for s in 0..CHURN_SERVICES {
        // The first leg is the one that never crashes, whatever the seed.
        let mut roles = vec![ANCHOR];
        if s < 4 {
            roles.extend(dealt(rng, FIVE));
        } else {
            let [a, b, c, d] = FIVE;
            roles.extend(dealt(rng, [a, b, c, d, SIXTH]));
        }
        let mut specs = Vec::new();
        for (m, &(latency_ms, cost, period_ms, crashed_tenths)) in roles.iter().enumerate() {
            let name = ms_name(m);
            let capability = format!("cap-{s}-{name}");
            let plan = (churned(s) && period_ms > 0).then(|| {
                let period = Duration::from_millis(period_ms);
                flap_plan(
                    Duration::from_millis(rng.below(period_ms)),
                    period,
                    period * crashed_tenths / 10,
                    4_000,
                )
            });
            specs.push(MsSpec {
                name,
                capability: capability.clone(),
                prior: qos(cost, latency_ms as f64, 0.8),
            });
            devices.push(DeviceInput {
                id: format!("dev-{s}-{m}/{capability}"),
                capability,
                latency: Duration::from_millis(latency_ms),
                cost,
                reliability: 1.0,
                plan,
            });
        }
        let mut script =
            ServiceScript::new(format!("svc-{s:02}"), specs, requirements(40.0, 24.0, 0.97));
        script.slot_size = CHURN_SLOT;
        scripts.push(script);
    }
    Inputs { scripts, devices }
}

const FLEET_SERVICES: usize = 40;
const FLEET_GROUPS: usize = 5;

/// Forty services of three microservices over five shared capability
/// groups (fifteen fleet-wide devices), two requirement shapes. Slots end
/// only when the generator ends them, between bursts.
fn fleet_services(rng: &mut Rng) -> Inputs {
    /// (latency ms, cost).
    const ROLES: [(u64, f64); 3] = [(1, 20.0), (2, 10.0), (4, 5.0)];
    let mut devices = Vec::new();
    let mut group_caps = Vec::new();
    for g in 0..FLEET_GROUPS {
        let mut caps = Vec::new();
        for (m, (latency_ms, cost)) in dealt(rng, ROLES).into_iter().enumerate() {
            let capability = format!("cap-{g}-{}", ms_name(m));
            devices.push(DeviceInput {
                id: format!("dev-{g}-{m}/{capability}"),
                capability: capability.clone(),
                latency: Duration::from_millis(latency_ms),
                cost,
                reliability: 1.0,
                plan: None,
            });
            caps.push((capability, cost, latency_ms));
        }
        group_caps.push(caps);
    }
    let scripts = (0..FLEET_SERVICES)
        .map(|s| {
            let caps = &group_caps[s % FLEET_GROUPS];
            let specs = caps
                .iter()
                .enumerate()
                .map(|(m, (capability, cost, latency_ms))| MsSpec {
                    name: ms_name(m),
                    capability: capability.clone(),
                    prior: qos(*cost, *latency_ms as f64, 0.9),
                })
                .collect();
            let requirement = if (s / FLEET_GROUPS).is_multiple_of(2) {
                requirements(100.0, 50.0, 0.9)
            } else {
                requirements(60.0, 40.0, 0.9)
            };
            let mut script = ServiceScript::new(format!("svc-{s:02}"), specs, requirement);
            script.slot_size = FOREVER_SLOT;
            script
        })
        .collect();
    Inputs { scripts, devices }
}

const CLASS_MIX: [QosClass; 4] = [
    QosClass::Critical,
    QosClass::Interactive,
    QosClass::Bulk,
    QosClass::Scavenger,
];

/// One re-plan whose winner is re-derived after the run.
#[derive(Debug)]
struct ReplanSample {
    service: usize,
    env: EnvQos,
    /// The strategy the re-plan chose, once its first reply is back.
    winner: Option<String>,
}

/// One measured segment.
#[derive(Debug, Clone, Copy)]
pub struct SegmentTiming {
    pub requests: usize,
    /// Wall time of the segment without the reference kernel's samples.
    pub wall: Duration,
    pub p50_ns: u32,
    pub p99_ns: u32,
    /// Mean and median of the reference kernel's readings taken during the
    /// segment (ns): how fast the box was while these requests ran, with
    /// and without its stalls.
    pub box_mean_ns: f64,
    pub box_median_ns: f64,
}

/// A blocking segment samples the reference kernel once per this much
/// request time (a sample takes about 0.1 ms and is left out of `wall`).
const SAMPLE_EVERY: Duration = Duration::from_millis(4);
/// A windowed segment samples it this many times between windows, where
/// the client is idle and the loops are drained: before the first, after
/// the last, and before any other once `SAMPLE_EVERY` has passed.
const SAMPLES_BETWEEN_WINDOWS: usize = 4;

/// A rig plus the client state that drives it: which service is next,
/// which class, where each churned service is in its slot.
#[derive(Debug)]
pub struct Session {
    pub shape: Shape,
    pub rig: Rig,
    service_ids: Vec<String>,
    issued: u64,
    /// Requests issued to each service, for slot-boundary bookkeeping.
    per_service: Vec<u64>,
    replans_seen: u64,
    samples: Vec<ReplanSample>,
    /// Scratch for a window's submit instants and handles.
    window_starts: Vec<Instant>,
}

/// Re-derive the winner of the first and then every this-many-th re-plan
/// on `replan_churn`.
const REPLAN_SAMPLE_EVERY: u64 = 50;
/// At most this many re-derivations per rig (an unpruned six-microservice
/// search takes tens of milliseconds).
const REPLAN_SAMPLE_LIMIT: usize = 5;

impl Session {
    pub fn new(shape: &Shape, seed: u64, hooks: Option<Arc<Hooks>>) -> Session {
        let inputs = shape.inputs(seed);
        let rig = Rig::build(
            &inputs,
            &RigOptions {
                clock: shape.clock,
                config: shape.config,
                shards: shape.shards,
                hooks,
            },
        );
        let service_ids: Vec<String> = inputs
            .scripts
            .iter()
            .map(|s| s.service_id.clone())
            .collect();
        Session {
            shape: shape.clone(),
            per_service: vec![0; service_ids.len()],
            service_ids,
            rig,
            issued: 0,
            replans_seen: 0,
            samples: Vec::new(),
            window_starts: Vec::with_capacity(shape.window()),
        }
    }

    pub fn observer(&self) -> Observer {
        Observer::new(
            &self.rig.scripts,
            self.shape.oracle_prefix,
            self.shape.on_virtual_clock(),
        )
    }

    /// The next request and the index of its service: services in turn,
    /// classes in turn where the workload is classed.
    fn next_request(&mut self) -> (usize, Request) {
        let service = (self.issued % self.service_ids.len() as u64) as usize;
        let mut request = Request::new(self.service_ids[service].as_str());
        if self.shape.classed {
            request = request.class(self.class_of(self.issued));
        }
        self.issued += 1;
        (service, request)
    }

    /// The class of the `index`-th request: admission is per service, so
    /// the turn advances with each round over the services and every
    /// service sees all four classes in equal shares.
    fn class_of(&self, index: u64) -> QosClass {
        let services = self.service_ids.len() as u64;
        CLASS_MIX[((index / services + index % services) % CLASS_MIX.len() as u64) as usize]
    }

    /// Generator-side bookkeeping before a request to `service` on
    /// `replan_churn`: at a churned service's slot boundary, step its first
    /// leg's latency so the collector's table (and with it the plan-cache
    /// key) is one the planner has never seen; and note the first and then
    /// every fiftieth re-plan's environment for the re-derivation check.
    fn before_churn_request(&mut self, service: usize) {
        let sent = self.per_service[service];
        self.per_service[service] += 1;
        if sent == 0 || !sent.is_multiple_of(u64::from(CHURN_SLOT)) {
            return;
        }
        let script = &self.rig.scripts[service];
        if churned(service) {
            let spec = &script.microservices[0];
            let device_id = format!("dev-{service}-0/{}", spec.capability);
            let step = sent / u64::from(CHURN_SLOT);
            let base = Duration::from_secs_f64(spec.prior.latency / 1e3);
            self.rig.devices[&device_id]
                .set_latency(base + Duration::from_micros(step % 1_000_000));
        }
        self.replans_seen += 1;
        if self.replans_seen % REPLAN_SAMPLE_EVERY == 1 && self.samples.len() < REPLAN_SAMPLE_LIMIT
        {
            // One generator thread and a virtual clock: the collector the
            // planner is about to read is exactly what is read here.
            let gateway = &self.rig.front.gateways()[0];
            let providers = self.rig.providers_of(script);
            self.samples.push(ReplanSample {
                service,
                env: assumed_env(script, &providers, gateway.collector()),
                winner: None,
            });
        }
    }

    fn after_churn_reply(&mut self, service: usize, reply: &Result<ServiceResponse, RuntimeError>) {
        if let (Some(sample), Ok(response)) = (self.samples.last_mut(), reply) {
            if sample.winner.is_none() && sample.service == service {
                sample.winner = Some(response.strategy_text.clone());
            }
        }
    }

    fn submit_blocking(&mut self, observer: &mut Observer, trace: Option<&Hooks>) -> Duration {
        let (service, request) = self.next_request();
        let churn = self.shape.steps_environment();
        if churn {
            self.before_churn_request(service);
        }
        let span = trace.map(|hooks| hooks.tracer.open("gateway.submit"));
        let start = Instant::now();
        let reply = self.rig.front.submit(request);
        let latency = start.elapsed();
        if let (Some(hooks), Some(span)) = (trace, span) {
            let key = reply.as_ref().map_or(0, |r| {
                hooks.request_key(&self.service_ids[service], r.request_id)
            });
            hooks.tracer.close(span, key);
        }
        if churn {
            self.after_churn_reply(service, &reply);
        }
        observer.reply(service, &reply);
        latency
    }

    /// `count` requests through blocking `submit`, whatever the workload's
    /// own drive: the oracle, and the warm-up of blocking workloads.
    pub fn run_sequential(&mut self, count: usize, observer: &mut Observer) {
        for _ in 0..count {
            self.submit_blocking(observer, None);
        }
    }

    fn end_all_slots(&self) {
        for service in &self.service_ids {
            self.rig.front.end_slot(service);
        }
    }

    /// One window: `count` asynchronous submissions at one pinned clock
    /// instant, then every handle waited in submission order. A request's
    /// latency runs from its `submit_async` call to its `wait` returning.
    fn run_window(
        &mut self,
        count: usize,
        latencies: &mut Vec<u32>,
        observer: &mut Observer,
        trace: Option<&Hooks>,
    ) {
        self.window_starts.clear();
        let mut handles = Vec::with_capacity(count);
        let mut submit_spans = Vec::new();
        {
            let clock = Arc::clone(&self.rig.clock);
            let _pin = WorkerGuard::enter(clock.as_ref());
            for _ in 0..count {
                let (service, request) = self.next_request();
                let start = Instant::now();
                let trace_start = trace.map(|hooks| hooks.tracer.now_ns());
                let handle = self.rig.front.submit_async(request);
                if let (Some(hooks), Some(start_ns)) = (trace, trace_start) {
                    submit_spans.push((start_ns, hooks.tracer.now_ns()));
                }
                self.window_starts.push(start);
                handles.push((service, handle));
            }
        }
        for (i, (service, handle)) in handles.into_iter().enumerate() {
            let wait_start = trace.map(|hooks| hooks.tracer.now_ns());
            let (request_id, reply) = match handle {
                Ok(handle) => (handle.request_id(), handle.wait()),
                Err(error) => (0, Err(error)),
            };
            latencies.push(clamp_ns(self.window_starts[i].elapsed()));
            if let (Some(hooks), Some(wait_start)) = (trace, wait_start) {
                let wait_end = hooks.tracer.now_ns();
                let (submit_start, submit_end) = submit_spans[i];
                let key = hooks.request_key(&self.service_ids[service], request_id);
                record_async_request(hooks, key, submit_start, submit_end, wait_start, wait_end);
            }
            observer.reply(service, &reply);
        }
        if self.shape.end_slot_between_windows {
            self.end_all_slots();
        }
    }

    /// The workload's warm-up, in its own drive mode.
    pub fn warm_up(&mut self, observer: &mut Observer) {
        let count = self.shape.warm_up;
        match self.shape.drive {
            Drive::Blocking => self.run_sequential(count, observer),
            Drive::Windows { .. } => {
                if self.shape.is_fleet() {
                    self.fleet_pathfinders(observer);
                }
                let mut scratch = Vec::with_capacity(count);
                self.run_window(count, &mut scratch, observer, None);
            }
        }
    }

    /// The oracle's counterpart of [`Session::warm_up`]: the same requests
    /// through blocking `submit`, slots ended at the same points.
    pub fn warm_up_sequential(&mut self, observer: &mut Observer) {
        if self.shape.is_fleet() {
            self.fleet_pathfinders(observer);
        }
        self.run_sequential(self.shape.warm_up, observer);
        if self.shape.end_slot_between_windows {
            self.end_all_slots();
        }
    }

    /// Slot 0 on the fleet: one blocking request per service runs the
    /// default strategy and leaves the collector its first observations,
    /// then every slot is ended so the first burst is planned from them.
    fn fleet_pathfinders(&mut self, observer: &mut Observer) {
        self.run_sequential(self.service_ids.len(), observer);
        self.end_all_slots();
    }

    /// One segment in the workload's own drive mode. `latencies` is
    /// cleared and refilled with the client-side latency of every request;
    /// `calibrator` is sampled between requests (or windows), on the
    /// client's thread, and the time that takes is left out of the
    /// segment's wall time.
    pub fn run_segment(
        &mut self,
        latencies: &mut Vec<u32>,
        observer: &mut Observer,
        trace: Option<&Hooks>,
        calibrator: &mut Calibrator,
    ) -> SegmentTiming {
        latencies.clear();
        let requests = self.shape.segment;
        let mark = calibrator.mark();
        let mut sampling = Duration::ZERO;
        let start = Instant::now();
        match self.shape.drive {
            Drive::Blocking => {
                // Closed loop: request time since the last sample is the
                // sum of the latencies, so no extra clock read is needed.
                let mut since_sample = SAMPLE_EVERY;
                for _ in 0..requests {
                    if since_sample >= SAMPLE_EVERY {
                        sampling += calibrator.sample();
                        since_sample = Duration::ZERO;
                    }
                    let latency = self.submit_blocking(observer, trace);
                    since_sample += latency;
                    latencies.push(clamp_ns(latency));
                }
            }
            Drive::Windows { window } => {
                let mut since_sample = SAMPLE_EVERY;
                for _ in 0..requests / window {
                    if since_sample >= SAMPLE_EVERY {
                        sampling += calibrator.burst(SAMPLES_BETWEEN_WINDOWS);
                        since_sample = Duration::ZERO;
                    }
                    let window_start = Instant::now();
                    self.run_window(window, latencies, observer, trace);
                    since_sample += window_start.elapsed();
                }
                sampling += calibrator.burst(SAMPLES_BETWEEN_WINDOWS);
            }
        }
        let wall = start.elapsed().saturating_sub(sampling);
        SegmentTiming {
            requests,
            wall,
            p50_ns: percentile(latencies, 50.0).unwrap_or(0),
            p99_ns: percentile(latencies, 99.0).unwrap_or(0),
            box_mean_ns: calibrator.mean_ns_since(mark),
            box_median_ns: calibrator.median_ns_since(mark),
        }
    }

    /// Re-derives the sampled re-plans' winners with an unpruned,
    /// single-thread exhaustive search. Returns how many were checked.
    pub fn check_replan_samples(&self) -> Result<usize, String> {
        let mut checked = 0;
        for sample in &self.samples {
            let Some(winner) = &sample.winner else {
                continue;
            };
            let script = &self.rig.scripts[sample.service];
            let utility = UtilityIndex::new(script.penalty_k).map_err(|e| e.to_string())?;
            let reference = Generator::builder()
                .utility(utility)
                .parallelism(1)
                .pruning(false)
                .build()
                .exhaustive(&sample.env, &sample.env.ids(), &script.requirements)
                .map_err(|e| e.to_string())?;
            let expected = reference.strategy.to_string_with_names(&script.ms_names());
            if &expected != winner {
                return Err(format!(
                    "{}: re-plan chose {winner}, an unpruned single-thread search chooses {expected}",
                    script.service_id
                ));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// The fleet's closing checks: one more burst with stamped providers
    /// gives every request's virtual queue wait (first leaf's clock reading
    /// minus the burst's pinned instant); on every service Critical's 99th
    /// percentile must not exceed Scavenger's median, and every shard's
    /// event core must be drained. Returns the burst-wide
    /// `(critical_p99_ms, scavenger_p50_ms)`.
    pub fn check_fleet_burst(
        &mut self,
        hooks: &Arc<Hooks>,
        observer: &mut Observer,
    ) -> Result<(f64, f64), String> {
        self.rig.register_stamped(hooks);
        self.end_all_slots();
        let window = self.shape.window();
        let first_span = hooks.tracer.snapshot().len();
        let pinned_ns = self.rig.clock.now().as_nanos() as u64;
        let first_request = self.issued;
        let mut scratch = Vec::with_capacity(window);
        self.run_window(window, &mut scratch, observer, Some(hooks));

        let spans = hooks.tracer.snapshot();
        let spans = &spans[first_span..];
        // First leaf per request key.
        let mut first_leaf: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for span in spans.iter().filter(|s| s.name.starts_with("provider.")) {
            let at = first_leaf.entry(span.request).or_insert(u64::MAX);
            *at = (*at).min(span.clock_ns);
        }
        // The burst's requests in submission order: service and class
        // follow from the request's index. Admission is per service, so
        // the ordering is checked within each service; the two numbers
        // reported are taken over the whole burst.
        let services = self.service_ids.len();
        let mut per_service: Vec<[Vec<u64>; 4]> = vec![Default::default(); services];
        for (i, root) in spans.iter().filter(|s| s.name == "request").enumerate() {
            let index = first_request + i as u64;
            if let Some(&leaf_ns) = first_leaf.get(&root.request) {
                per_service[(index % services as u64) as usize][self.class_of(index).index()]
                    .push(leaf_ns.saturating_sub(pinned_ns));
            }
        }
        let critical = QosClass::Critical.index();
        let scavenger = QosClass::Scavenger.index();
        let mut all_critical = Vec::new();
        let mut all_scavenger = Vec::new();
        let mut compared = 0;
        for (service, waits) in per_service.iter_mut().enumerate() {
            // A quick run's burst is too small to give every service both
            // classes; a full one gives each 62 of either.
            if let (Some(critical_p99), Some(scavenger_p50)) = (
                percentile(&mut waits[critical], 99.0),
                percentile(&mut waits[scavenger], 50.0),
            ) {
                if critical_p99 > scavenger_p50 {
                    return Err(format!(
                        "service #{service}: Critical queue-wait p99 {} ms exceeds Scavenger p50 {} ms",
                        critical_p99 as f64 / 1e6,
                        scavenger_p50 as f64 / 1e6
                    ));
                }
                compared += 1;
            }
            all_critical.append(&mut waits[critical]);
            all_scavenger.append(&mut waits[scavenger]);
        }
        if compared == 0 {
            return Err("no service had both a Critical and a Scavenger request stamped".into());
        }
        let critical_ms = percentile(&mut all_critical, 99.0).unwrap_or(0) as f64 / 1e6;
        let scavenger_ms = percentile(&mut all_scavenger, 50.0).unwrap_or(0) as f64 / 1e6;
        self.check_drained()?;
        Ok((critical_ms, scavenger_ms))
    }

    /// Every gateway's event core holds no request and no frame.
    pub fn check_drained(&self) -> Result<(), String> {
        for (shard, gateway) in self.rig.front.gateways().iter().enumerate() {
            let stats = gateway.engine_stats();
            if stats.in_flight != 0 || stats.frames_live != 0 {
                return Err(format!(
                    "shard {shard}: event core not drained (in flight {}, frames {})",
                    stats.in_flight, stats.frames_live
                ));
            }
        }
        Ok(())
    }
}

fn clamp_ns(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).unwrap_or(u32::MAX)
}

/// The three client-side spans of one asynchronous request: the request
/// from its `submit_async` call to its `wait` returning, and the two calls
/// inside it.
fn record_async_request(
    hooks: &Hooks,
    key: u64,
    submit_start: u64,
    submit_end: u64,
    wait_start: u64,
    wait_end: u64,
) {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: key,
        clock_ns: 0,
    };
    let root = hooks
        .tracer
        .record(span("request", submit_start, wait_end, NO_PARENT));
    if root != NO_PARENT {
        hooks
            .tracer
            .record(span("gateway.submit_async", submit_start, submit_end, root));
        hooks
            .tracer
            .record(span("request.wait", wait_start, wait_end, root));
    }
}
