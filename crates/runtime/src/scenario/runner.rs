//! Deterministic scenario replay: drives a compiled scenario through a
//! [`Harness`] on virtual time and aggregates per-slot QoS-consistency
//! metrics.
//!
//! The runner walks the compiled schedule in order, advancing the shared
//! [`VirtualClock`](crate::VirtualClock) to each event's instant. Requests
//! sharing an instant (burst phases) are issued concurrently from scoped
//! threads registered as clock workers — the same idiom the throughput
//! bench uses — so admission limits and shedding behave exactly as they
//! would under real concurrency, with zero real sleeps. All per-request
//! records are sorted by a total order before any float is summed, so the
//! aggregated metrics are byte-identical across runs of the same scenario.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use qce_strategy::{Qos, Requirements};

use crate::clock::{Clock, WorkerGuard};
use crate::device::{Provider, SimulatedProvider};
use crate::fault::FaultPlan;
use crate::gateway::{GatewayConfig, ServiceResponse};
use crate::harness::Harness;
use crate::message::RuntimeError;
use crate::request::{QosClass, Request};
use crate::script::{MsSpec, ServiceScript};
use crate::telemetry::EventKind;

use super::compile::{compile, provider_seed, Action, CompiledScenario, ScheduledEvent};
use super::model::{Require, Scenario, ScenarioError, DEFAULT_PENALTY_K};

/// Per-slot QoS-consistency metrics, aggregated over every service.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMetrics {
    /// Slot index.
    pub slot: u32,
    /// Requests attributed to the slot (including shed ones).
    pub requests: u64,
    /// Requests that completed successfully *within* their service's cost
    /// and latency requirements.
    pub satisfied: u64,
    /// Requests shed by admission control ([`RuntimeError::Overloaded`]).
    pub shed: u64,
    /// Requests that errored for any other reason.
    pub failed: u64,
    /// `satisfied / requests`; defined as 1.0 for an idle slot.
    pub satisfaction_rate: f64,
    /// Nearest-rank p99 latency over completed requests, in virtual
    /// milliseconds (0.0 when nothing completed).
    pub p99_latency_ms: f64,
    /// Mean cost over completed requests (0.0 when nothing completed).
    pub mean_cost: f64,
    /// Per-class breakout, highest priority first; only classes that saw
    /// requests appear (empty for a classless scenario's all-Interactive
    /// traffic is *not* elided — Interactive still appears).
    pub classes: Vec<ClassMetrics>,
}

impl SlotMetrics {
    /// The slot's breakout for `class`, if that class saw requests.
    #[must_use]
    pub fn class(&self, class: QosClass) -> Option<&ClassMetrics> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// One traffic class's slice of the metrics (per slot or whole-run).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// The traffic class.
    pub class: QosClass,
    /// Requests of this class (including shed ones).
    pub requests: u64,
    /// Requests satisfied within their service's requirements.
    pub satisfied: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests failing with a non-shed error.
    pub failed: u64,
    /// `satisfied / requests` for this class.
    pub satisfaction_rate: f64,
    /// Nearest-rank p99 latency over this class's completed requests, in
    /// virtual milliseconds (0.0 when nothing completed).
    pub p99_latency_ms: f64,
}

/// The slots a storm touches (inclusive on both ends).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSpan {
    /// Storm name.
    pub storm: String,
    /// First slot the outage window touches.
    pub from_slot: u32,
    /// Last slot the outage window touches.
    pub to_slot: u32,
}

/// Aggregated result of one scenario replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Per-slot metrics, one entry per slot in order.
    pub per_slot: Vec<SlotMetrics>,
    /// Slot spans of the scenario's storms, in declaration order.
    pub storms: Vec<StormSpan>,
    /// Total requests issued.
    pub total_requests: u64,
    /// Total satisfied requests.
    pub total_satisfied: u64,
    /// Total shed requests.
    pub total_shed: u64,
    /// Total requests failing with a non-shed error.
    pub total_failed: u64,
    /// Whole-run per-class breakout, highest priority first; only classes
    /// that saw requests appear.
    pub classes: Vec<ClassMetrics>,
}

impl ScenarioOutcome {
    /// The run's breakout for `class`, if that class saw requests.
    #[must_use]
    pub fn class(&self, class: QosClass) -> Option<&ClassMetrics> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// The fraction of all shed requests that belonged to `class`
    /// (defined as 1.0 when nothing was shed, so "Scavenger absorbed the
    /// sheds" holds vacuously on a calm run).
    #[must_use]
    pub fn shed_share(&self, class: QosClass) -> f64 {
        if self.total_shed == 0 {
            1.0
        } else {
            self.class(class).map_or(0, |c| c.shed) as f64 / self.total_shed as f64
        }
    }

    /// Overall requirement-satisfaction rate (1.0 for an empty run).
    #[must_use]
    pub fn satisfaction_rate(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            self.total_satisfied as f64 / self.total_requests as f64
        }
    }

    /// Overall shed rate (0.0 for an empty run).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.total_shed as f64 / self.total_requests as f64
        }
    }

    /// Whether `slot` lies inside any storm's touched span.
    #[must_use]
    pub fn is_storm_slot(&self, slot: u32) -> bool {
        self.storms
            .iter()
            .any(|s| s.from_slot <= slot && slot <= s.to_slot)
    }

    /// Adaptation lag per storm: the number of post-storm slots whose
    /// satisfaction rate stays below `floor` before the first slot at or
    /// above it. `Some(0)` means the service recovered in the very first
    /// slot after the storm; `None` means satisfaction never recovered
    /// within the horizon (or the storm ran to the end of it).
    #[must_use]
    pub fn adaptation_lags(&self, floor: f64) -> Vec<(String, Option<u32>)> {
        self.storms
            .iter()
            .map(|span| {
                let lag = self
                    .per_slot
                    .iter()
                    .filter(|m| m.slot > span.to_slot && m.requests > 0)
                    .position(|m| m.satisfaction_rate >= floor)
                    .map(|slots_below| slots_below as u32);
                (span.storm.clone(), lag)
            })
            .collect()
    }
}

/// A completed scenario replay: the aggregated outcome plus the harness it
/// ran on (for telemetry snapshots and post-mortem inspection).
#[derive(Debug)]
pub struct ScenarioRun {
    /// Aggregated per-slot metrics.
    pub outcome: ScenarioOutcome,
    /// The harness the scenario ran on.
    pub harness: Harness,
}

/// One classified request.
#[derive(Debug, Clone)]
struct RequestRecord {
    slot: u32,
    service: String,
    class: QosClass,
    /// 0 = completed ok, 1 = completed with failure, 2 = shed, 3 = error.
    kind: u8,
    latency_ms: f64,
    cost: f64,
    satisfied: bool,
}

fn classify(
    slot: u32,
    service: &str,
    class: QosClass,
    require: &Require,
    result: &Result<ServiceResponse, RuntimeError>,
) -> RequestRecord {
    match result {
        Ok(response) => {
            let latency_ms = response.latency.as_secs_f64() * 1_000.0;
            let satisfied = response.success
                && latency_ms <= require.latency_ms
                && response.cost <= require.cost;
            RequestRecord {
                slot,
                service: service.to_string(),
                class,
                kind: u8::from(!response.success),
                latency_ms,
                cost: response.cost,
                satisfied,
            }
        }
        Err(RuntimeError::Overloaded { .. }) => RequestRecord {
            slot,
            service: service.to_string(),
            class,
            kind: 2,
            latency_ms: 0.0,
            cost: 0.0,
            satisfied: false,
        },
        Err(_) => RequestRecord {
            slot,
            service: service.to_string(),
            class,
            kind: 3,
            latency_ms: 0.0,
            cost: 0.0,
            satisfied: false,
        },
    }
}

fn build_harness(scenario: &Scenario, compiled: &CompiledScenario) -> Harness {
    let knobs = &scenario.gateway;
    let mut config = GatewayConfig::builder();
    if let Some(v) = knobs.collector_window {
        config = config.collector_window(v as usize);
    }
    if let Some(v) = knobs.max_in_flight {
        config = config.max_in_flight(v as usize);
    }
    if let Some(v) = knobs.admission_queue {
        config = config.admission_queue(v as usize);
    }

    let mut builder = Harness::builder().config(config.build());
    for service in &scenario.services {
        let specs = service
            .microservices
            .iter()
            .map(|ms| MsSpec {
                name: ms.name.clone(),
                capability: format!("{}/{}", service.name, ms.name),
                prior: Qos::new(ms.cost, ms.latency_ms, ms.reliability)
                    .expect("validated microservice QoS is in domain"),
            })
            .collect();
        let requirements = Requirements::new(
            service.require.cost,
            service.require.latency_ms,
            service.require.reliability,
        )
        .expect("validated requirements are in domain");
        let mut script = ServiceScript::new(service.name.clone(), specs, requirements);
        script.penalty_k = service.penalty_k.unwrap_or(DEFAULT_PENALTY_K);
        script.quorum = service.quorum;
        // Slots are driven by the schedule's forced boundaries, never by
        // request counts.
        script.slot_size = u32::MAX;
        builder = builder.script(script);

        for ms in &service.microservices {
            let id = format!("{}/{}", service.name, ms.name);
            let plan = compiled
                .plans
                .get(&id)
                .cloned()
                .unwrap_or_else(FaultPlan::none);
            let device = SimulatedProvider::builder(&id, &id)
                .cost(ms.cost)
                .latency(Duration::from_secs_f64(ms.latency_ms / 1_000.0))
                .reliability(ms.reliability)
                .seed(provider_seed(scenario.seed, &id));
            builder = builder.faulty(device, plan);
        }
    }
    builder.build()
}

/// Issues a batch of same-instant requests concurrently, throughput-bench
/// style: every client thread registers as a clock worker *before* the
/// barrier releases, so virtual time only advances once all of them are
/// accounted for.
fn run_batch<'a>(
    harness: &Harness,
    batch: &'a [ScheduledEvent],
) -> Vec<(&'a ScheduledEvent, Result<ServiceResponse, RuntimeError>)> {
    let barrier = Barrier::new(batch.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .iter()
            .map(|event| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let Action::Request { service, class } = &event.action else {
                        unreachable!("request batches only hold requests");
                    };
                    let _worker = WorkerGuard::enter(harness.clock().as_ref());
                    barrier.wait();
                    (
                        event,
                        harness
                            .gateway()
                            .submit(Request::new(service).class(*class)),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("scenario client thread panicked"))
            .collect()
    })
}

/// Nearest-rank p99 over the completed (kind <= 1) records of `slice`.
fn p99_of(slice: &[&RequestRecord]) -> f64 {
    let mut latencies: Vec<f64> = slice
        .iter()
        .filter(|r| r.kind <= 1)
        .map(|r| r.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);
    if latencies.is_empty() {
        0.0
    } else {
        let rank = ((0.99 * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank - 1]
    }
}

/// Per-class breakout of `slice`, highest priority first; classes without
/// requests are omitted.
fn class_breakout(slice: &[&RequestRecord]) -> Vec<ClassMetrics> {
    QosClass::ALL
        .iter()
        .filter_map(|&class| {
            let of_class: Vec<&RequestRecord> =
                slice.iter().filter(|r| r.class == class).copied().collect();
            if of_class.is_empty() {
                return None;
            }
            let requests = of_class.len() as u64;
            let satisfied = of_class.iter().filter(|r| r.satisfied).count() as u64;
            Some(ClassMetrics {
                class,
                requests,
                satisfied,
                shed: of_class.iter().filter(|r| r.kind == 2).count() as u64,
                failed: of_class.iter().filter(|r| r.kind == 3).count() as u64,
                satisfaction_rate: satisfied as f64 / requests as f64,
                p99_latency_ms: p99_of(&of_class),
            })
        })
        .collect()
}

fn aggregate(scenario: &Scenario, mut records: Vec<RequestRecord>) -> ScenarioOutcome {
    // Total order before any float is summed: aggregation must not depend
    // on which thread finished first inside a burst.
    records.sort_by(|a, b| {
        a.slot
            .cmp(&b.slot)
            .then_with(|| a.service.cmp(&b.service))
            .then(a.class.cmp(&b.class))
            .then(a.kind.cmp(&b.kind))
            .then(a.latency_ms.total_cmp(&b.latency_ms))
            .then(a.cost.total_cmp(&b.cost))
    });

    let mut per_slot = Vec::with_capacity(scenario.slots as usize);
    for slot in 0..scenario.slots {
        let slice: Vec<&RequestRecord> = records.iter().filter(|r| r.slot == slot).collect();
        let requests = slice.len() as u64;
        let satisfied = slice.iter().filter(|r| r.satisfied).count() as u64;
        let shed = slice.iter().filter(|r| r.kind == 2).count() as u64;
        let failed = slice.iter().filter(|r| r.kind == 3).count() as u64;
        let completed: Vec<&&RequestRecord> = slice.iter().filter(|r| r.kind <= 1).collect();
        let p99_latency_ms = p99_of(&slice);
        let mean_cost = if completed.is_empty() {
            0.0
        } else {
            completed.iter().map(|r| r.cost).sum::<f64>() / completed.len() as f64
        };
        per_slot.push(SlotMetrics {
            slot,
            requests,
            satisfied,
            shed,
            failed,
            satisfaction_rate: if requests == 0 {
                1.0
            } else {
                satisfied as f64 / requests as f64
            },
            p99_latency_ms,
            mean_cost,
            classes: class_breakout(&slice),
        });
    }

    let last_slot = scenario.slots - 1;
    let storms = scenario
        .storms
        .iter()
        .map(|storm| StormSpan {
            storm: storm.name.clone(),
            from_slot: ((storm.from_ms / scenario.slot_ms) as u32).min(last_slot),
            to_slot: ((storm.to_ms.saturating_sub(1) / scenario.slot_ms) as u32).min(last_slot),
        })
        .collect();

    let all: Vec<&RequestRecord> = records.iter().collect();
    ScenarioOutcome {
        name: scenario.name.clone(),
        total_requests: records.len() as u64,
        total_satisfied: records.iter().filter(|r| r.satisfied).count() as u64,
        total_shed: records.iter().filter(|r| r.kind == 2).count() as u64,
        total_failed: records.iter().filter(|r| r.kind == 3).count() as u64,
        classes: class_breakout(&all),
        per_slot,
        storms,
    }
}

/// Compiles and replays `scenario` deterministically on virtual time.
///
/// # Errors
///
/// Any [`ScenarioError`] from validation; replay itself cannot fail.
///
/// # Panics
///
/// Panics if a scenario client thread panics (a gateway bug — scenarios
/// are validated precisely so this cannot happen from bad input).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioRun, ScenarioError> {
    let compiled = compile(scenario)?;
    let harness = build_harness(scenario, &compiled);

    // Snapshot the registered (fault-wrapped) providers up front so churn
    // can re-register the same instance on rejoin.
    let mut wrapped: HashMap<String, Arc<dyn Provider>> = HashMap::new();
    for capability in harness.gateway().registry().capabilities() {
        for provider in harness.gateway().registry().providers_for(&capability) {
            wrapped.insert(provider.id().to_string(), provider);
        }
    }
    let requires: HashMap<&str, &Require> = scenario
        .services
        .iter()
        .map(|s| (s.name.as_str(), &s.require))
        .collect();

    let mut records: Vec<RequestRecord> = Vec::with_capacity(compiled.total_requests as usize);
    let clock = harness.clock();
    let gateway = harness.gateway();
    let mut i = 0;
    while i < compiled.schedule.len() {
        let event = &compiled.schedule[i];
        let now = clock.now();
        if event.at > now {
            clock.advance(event.at - now);
        }
        match &event.action {
            Action::EndSlot => {
                for service in &scenario.services {
                    gateway.end_slot(&service.name);
                }
            }
            Action::StormOnset { storm, providers } => {
                gateway.telemetry().record(EventKind::StormOnset {
                    storm: storm.clone(),
                    providers: providers.clone(),
                });
            }
            Action::StormRecovered { storm, providers } => {
                gateway.telemetry().record(EventKind::StormRecovered {
                    storm: storm.clone(),
                    providers: providers.clone(),
                });
            }
            Action::Leave { provider } => {
                let _ = gateway.provider_left(provider);
            }
            Action::Rejoin { provider } => {
                if let Some(arc) = wrapped.get(provider) {
                    gateway.provider_joined(Arc::clone(arc));
                }
            }
            Action::Request { service, class } => {
                let mut j = i;
                while j < compiled.schedule.len()
                    && compiled.schedule[j].at == event.at
                    && matches!(compiled.schedule[j].action, Action::Request { .. })
                {
                    j += 1;
                }
                let batch = &compiled.schedule[i..j];
                if batch.len() == 1 {
                    let require = requires[service.as_str()];
                    let result = gateway.submit(Request::new(service).class(*class));
                    records.push(classify(event.slot, service, *class, require, &result));
                } else {
                    for (batched, result) in run_batch(&harness, batch) {
                        let Action::Request { service, class } = &batched.action else {
                            unreachable!("request batches only hold requests");
                        };
                        let require = requires[service.as_str()];
                        records.push(classify(batched.slot, service, *class, require, &result));
                    }
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    // Flush the final slot so its collector window and telemetry
    // final-stats are sealed like every other slot's.
    for service in &scenario.services {
        gateway.end_slot(&service.name);
    }

    let outcome = aggregate(scenario, records);
    Ok(ScenarioRun { outcome, harness })
}

#[cfg(test)]
mod tests {
    use super::super::model::{
        Churn, GatewayKnobs, LoadPhase, MsDef, Require, Scenario, ServiceDef, Storm,
    };
    use super::*;

    fn base() -> Scenario {
        Scenario {
            name: "runner-unit".to_string(),
            seed: 21,
            slots: 5,
            slot_ms: 100,
            requests_per_slot: 8,
            load: Vec::new(),
            services: vec![ServiceDef {
                name: "svc".to_string(),
                microservices: vec![
                    MsDef {
                        name: "a".to_string(),
                        cost: 10.0,
                        latency_ms: 2.0,
                        reliability: 1.0,
                    },
                    MsDef {
                        name: "b".to_string(),
                        cost: 20.0,
                        latency_ms: 4.0,
                        reliability: 1.0,
                    },
                ],
                require: Require {
                    cost: 100.0,
                    latency_ms: 50.0,
                    reliability: 0.8,
                },
                penalty_k: None,
                quorum: None,
                class: None,
            }],
            storms: Vec::new(),
            churn: Vec::new(),
            background: None,
            gateway: GatewayKnobs::default(),
        }
    }

    #[test]
    fn calm_scenario_satisfies_every_slot() {
        let run = run_scenario(&base()).unwrap();
        let outcome = &run.outcome;
        assert_eq!(outcome.per_slot.len(), 5);
        assert_eq!(outcome.total_requests, 40);
        assert_eq!(outcome.total_shed, 0);
        for slot in &outcome.per_slot {
            assert_eq!(slot.requests, 8);
            assert_eq!(slot.satisfaction_rate, 1.0);
            assert!(slot.p99_latency_ms > 0.0);
        }
        assert_eq!(outcome.satisfaction_rate(), 1.0);
    }

    #[test]
    fn replay_is_deterministic_including_fractional_reliability() {
        let mut s = base();
        s.services[0].microservices[0].reliability = 0.7;
        s.services[0].microservices[1].reliability = 0.85;
        let a = run_scenario(&s).unwrap().outcome;
        let b = run_scenario(&s).unwrap().outcome;
        assert_eq!(a, b);
    }

    #[test]
    fn total_blackout_storm_zeroes_satisfaction_then_recovers() {
        let mut s = base();
        s.storms.push(Storm {
            name: "blackout".to_string(),
            group: vec!["svc/a".to_string(), "svc/b".to_string()],
            from_ms: 100,
            to_ms: 200,
        });
        let run = run_scenario(&s).unwrap();
        let outcome = &run.outcome;
        assert_eq!(outcome.storms.len(), 1);
        assert_eq!(outcome.storms[0].from_slot, 1);
        assert_eq!(outcome.storms[0].to_slot, 1);
        assert_eq!(outcome.per_slot[1].satisfaction_rate, 0.0);
        assert!(outcome.per_slot[0].satisfaction_rate == 1.0);
        let lags = outcome.adaptation_lags(0.9);
        assert_eq!(lags.len(), 1);
        let (name, lag) = &lags[0];
        assert_eq!(name, "blackout");
        assert!(
            lag.is_some() && lag.unwrap() <= 1,
            "satisfaction must recover shortly after the storm, got {lag:?}"
        );
        let snapshot = run.harness.telemetry().snapshot();
        assert_eq!(snapshot.storms.onsets, 1);
        assert_eq!(snapshot.storms.recoveries, 1);
    }

    #[test]
    fn churned_provider_leaves_and_rejoins_without_breaking_service() {
        let mut s = base();
        s.churn.push(Churn {
            provider: "svc/a".to_string(),
            leave_ms: 110,
            rejoin_ms: Some(310),
        });
        let run = run_scenario(&s).unwrap();
        // Requests routed to the departed provider fail until the next
        // slot's re-plan; after that the surviving provider carries the
        // service, and the rejoin must not disturb it.
        assert!(run.outcome.satisfaction_rate() > 0.7);
        assert_eq!(run.outcome.per_slot[0].satisfaction_rate, 1.0);
        for slot in &run.outcome.per_slot[2..] {
            assert_eq!(
                slot.satisfaction_rate, 1.0,
                "slot {} should have adapted to the departure",
                slot.slot
            );
        }
        let snapshot = run.harness.telemetry().snapshot();
        let provider = snapshot.provider("svc/a").unwrap();
        assert_eq!(provider.departures, 1);
        assert_eq!(provider.rejoins, 1);
    }

    #[test]
    fn burst_load_with_admission_limits_sheds_deterministically() {
        let mut s = base();
        s.load.push(LoadPhase {
            from_slot: 1,
            to_slot: 3,
            multiplier: 2.0,
            burst: 8,
            classes: Vec::new(),
        });
        s.gateway.max_in_flight = Some(2);
        s.gateway.admission_queue = Some(2);
        let a = run_scenario(&s).unwrap().outcome;
        let b = run_scenario(&s).unwrap().outcome;
        assert_eq!(a, b, "burst replay must be deterministic");
        assert!(a.total_shed > 0, "tight admission limits must shed bursts");
        assert!(a.shed_rate() > 0.0);
    }

    #[test]
    fn classless_traffic_aggregates_as_interactive() {
        let outcome = run_scenario(&base()).unwrap().outcome;
        assert_eq!(outcome.classes.len(), 1);
        let interactive = outcome.class(QosClass::Interactive).unwrap();
        assert_eq!(interactive.requests, outcome.total_requests);
        assert_eq!(interactive.satisfaction_rate, 1.0);
        assert_eq!(outcome.shed_share(QosClass::Scavenger), 1.0, "vacuous");
        for slot in &outcome.per_slot {
            assert!(slot.class(QosClass::Interactive).is_some());
            assert!(slot.class(QosClass::Critical).is_none());
        }
    }

    #[test]
    fn mixed_class_bursts_shed_scavengers_and_spare_criticals() {
        // 16 requests/slot issued in bursts of 8 against a 2-in-flight /
        // 2-deep gate, each group carrying 2 Critical + 6 Scavenger: every
        // full group must shed exactly 4 Scavengers and zero Criticals,
        // regardless of thread interleaving.
        let mut s = base();
        s.requests_per_slot = 16;
        s.load.push(LoadPhase {
            from_slot: 1,
            to_slot: 3,
            multiplier: 1.0,
            burst: 8,
            classes: vec![
                QosClass::Critical,
                QosClass::Scavenger,
                QosClass::Scavenger,
                QosClass::Scavenger,
            ],
        });
        s.gateway.max_in_flight = Some(2);
        s.gateway.admission_queue = Some(2);
        let a = run_scenario(&s).unwrap().outcome;
        let b = run_scenario(&s).unwrap().outcome;
        assert_eq!(a, b, "mixed-class burst replay must be deterministic");

        let critical = a.class(QosClass::Critical).unwrap();
        assert_eq!(critical.shed, 0, "criticals preempt, they are never shed");
        assert_eq!(critical.satisfaction_rate, 1.0);
        let scavenger = a.class(QosClass::Scavenger).unwrap();
        // Two burst slots, two groups each, 4 Scavengers shed per group.
        assert_eq!(scavenger.shed, 16);
        assert_eq!(a.total_shed, 16);
        assert_eq!(a.shed_share(QosClass::Scavenger), 1.0);
        for slot in &a.per_slot[1..3] {
            assert_eq!(
                slot.class(QosClass::Critical).unwrap().satisfaction_rate,
                1.0
            );
            assert_eq!(slot.class(QosClass::Scavenger).unwrap().shed, 8);
        }
    }

    #[test]
    fn invalid_scenario_is_rejected_not_run() {
        let mut s = base();
        s.services.clear();
        assert!(run_scenario(&s).is_err());
    }
}
