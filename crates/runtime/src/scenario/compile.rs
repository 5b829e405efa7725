//! The scenario compiler: from a validated [`Scenario`] to per-provider
//! [`FaultPlan`]s and a time-ordered virtual-clock schedule.
//!
//! Compilation is pure and deterministic: the same scenario always yields
//! the same plans and the same schedule, byte for byte. Correlated storms
//! become per-leaf crash windows — the crash timeline of each provider is
//! the *union* of its storm windows and the crash windows of its seeded
//! background plan, re-emitted as canonical non-overlapping
//! `Crash`/`Recover` pairs (naively concatenating events would let a
//! background `Recover` punch a hole in an enclosing storm). Non-crash
//! background faults (latency spikes) are orthogonal device state and pass
//! through untouched.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::fault::{FaultEvent, FaultKind, FaultPlan, FaultProfile};
use crate::request::QosClass;

use super::model::{Scenario, ScenarioError};

/// What happens at one instant of the compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// A slot boundary: the runner forces `end_slot` on every service.
    EndSlot,
    /// A storm's recovery marker (providers are back).
    StormRecovered {
        /// Storm name.
        storm: String,
        /// Providers restored together.
        providers: Vec<String>,
    },
    /// A churned provider re-joins the environment.
    Rejoin {
        /// Provider id.
        provider: String,
    },
    /// A provider leaves the environment.
    Leave {
        /// Provider id.
        provider: String,
    },
    /// A storm's onset marker (providers just crashed together).
    StormOnset {
        /// Storm name.
        storm: String,
        /// Providers taken down together.
        providers: Vec<String>,
    },
    /// One client request to `service`. Requests sharing a timestamp are
    /// issued concurrently by the runner (burst phases).
    Request {
        /// Service id to invoke.
        service: String,
        /// Traffic class stamped at compile time: the covering phase's
        /// [`classes`](super::model::LoadPhase::classes) pattern when
        /// non-empty, else the service's
        /// [`class`](super::model::ServiceDef::class), else
        /// [`QosClass::Interactive`].
        class: QosClass,
    },
}

impl Action {
    /// Deterministic ordering rank for actions sharing a timestamp: slot
    /// boundaries first, then recoveries/rejoins (capacity returns before
    /// demand), then departures/onsets, then requests.
    fn rank(&self) -> u8 {
        match self {
            Action::EndSlot => 0,
            Action::StormRecovered { .. } => 1,
            Action::Rejoin { .. } => 2,
            Action::Leave { .. } => 3,
            Action::StormOnset { .. } => 4,
            Action::Request { .. } => 5,
        }
    }
}

/// One entry of the compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Virtual instant of the action.
    pub at: Duration,
    /// The slot the action belongs to (for requests: the slot metrics
    /// attribute them to, independent of how long they run).
    pub slot: u32,
    /// The action.
    pub action: Action,
}

/// A scenario compiled for deterministic replay.
#[derive(Debug, Clone)]
pub struct CompiledScenario {
    /// Total virtual horizon.
    pub horizon: Duration,
    /// Per-provider fault plans (storm windows ∪ background faults),
    /// keyed by provider id. Providers without faults map to an empty
    /// plan.
    pub plans: BTreeMap<String, FaultPlan>,
    /// The time-ordered schedule.
    pub schedule: Vec<ScheduledEvent>,
    /// Total requests the schedule issues (all services).
    pub total_requests: u64,
}

/// Stable 64-bit FNV-1a over a provider id, folded into the master seed so
/// every provider gets an independent — but reproducible — fault stream.
pub(crate) fn provider_seed(master: u64, provider_id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in provider_id.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    master ^ hash
}

/// Extracts the crash windows of `plan` as half-open intervals, plus the
/// pass-through non-crash events.
fn split_plan(plan: &FaultPlan, horizon: Duration) -> (Vec<(Duration, Duration)>, Vec<FaultEvent>) {
    let mut crashes = Vec::new();
    let mut others = Vec::new();
    let mut open: Option<Duration> = None;
    for event in plan.events() {
        match event.kind {
            FaultKind::Crash => {
                if open.is_none() {
                    open = Some(event.at);
                }
            }
            FaultKind::Recover => {
                if let Some(start) = open.take() {
                    if event.at > start {
                        crashes.push((start, event.at));
                    }
                }
            }
            _ => others.push(event.clone()),
        }
    }
    if let Some(start) = open {
        if horizon > start {
            crashes.push((start, horizon));
        }
    }
    (crashes, others)
}

/// Unions half-open intervals into a canonical sorted, disjoint set.
fn union_intervals(mut intervals: Vec<(Duration, Duration)>) -> Vec<(Duration, Duration)> {
    intervals.sort_unstable();
    let mut merged: Vec<(Duration, Duration)> = Vec::with_capacity(intervals.len());
    for (start, end) in intervals {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Unions `extra` half-open crash windows into `base`'s crash timeline,
/// re-emitting canonical non-overlapping `Crash`/`Recover` pairs.
/// Non-crash events of `base` (latency spikes, byzantine windows) pass
/// through untouched. A crash left open at the end of `base` is treated as
/// lasting until `horizon`.
///
/// This is how a storm becomes per-leaf fault plans: every member of the
/// storm's group gets the same windows merged into its own background
/// plan, which is what makes the failures *correlated*.
#[must_use]
pub fn merge_crash_windows(
    base: &FaultPlan,
    extra: &[(Duration, Duration)],
    horizon: Duration,
) -> FaultPlan {
    let (mut crash_intervals, mut events) = split_plan(base, horizon);
    crash_intervals.extend(extra.iter().copied());
    for (start, end) in union_intervals(crash_intervals) {
        events.push(FaultEvent {
            at: start,
            kind: FaultKind::Crash,
        });
        events.push(FaultEvent {
            at: end,
            kind: FaultKind::Recover,
        });
    }
    FaultPlan::new(events)
}

/// Builds the fault plan of one provider: the union of its storm windows
/// and background crash windows, plus pass-through background events.
fn provider_plan(
    scenario: &Scenario,
    provider_id: &str,
    background: Option<&FaultProfile>,
    horizon: Duration,
) -> FaultPlan {
    let storm_windows: Vec<(Duration, Duration)> = scenario
        .storms
        .iter()
        .filter(|s| s.group.iter().any(|p| p == provider_id))
        .map(|s| {
            (
                Duration::from_millis(s.from_ms),
                Duration::from_millis(s.to_ms),
            )
        })
        .collect();
    let base = background.map_or_else(FaultPlan::none, |profile| {
        FaultPlan::seeded(provider_seed(scenario.seed, provider_id), horizon, profile)
    });
    merge_crash_windows(&base, &storm_windows, horizon)
}

/// Compiles `scenario` into fault plans and a schedule.
///
/// # Errors
///
/// Any [`ScenarioError`] from [`Scenario::validate`] — compilation always
/// validates first, so an invalid scenario can never panic downstream.
pub fn compile(scenario: &Scenario) -> Result<CompiledScenario, ScenarioError> {
    scenario.validate()?;
    let horizon = Duration::from_millis(scenario.horizon_ms());

    let background = scenario.background.as_ref().map(|bg| FaultProfile {
        mean_time_between_faults: Duration::from_millis(bg.mean_time_between_ms),
        mean_fault_duration: Duration::from_millis(bg.mean_duration_ms),
        crash_weight: bg.crash_weight,
        latency_weight: bg.latency_weight,
        byzantine_weight: 0,
        latency_spike: Duration::from_millis(bg.latency_spike_ms),
        byzantine_payload: Vec::new(),
    });

    let mut plans = BTreeMap::new();
    for provider_id in scenario.provider_ids() {
        plans.insert(
            provider_id.clone(),
            provider_plan(scenario, &provider_id, background.as_ref(), horizon),
        );
    }

    let slot_of = |at_ms: u64| -> u32 {
        // Instants on the horizon boundary attribute to the last slot.
        ((at_ms / scenario.slot_ms) as u32).min(scenario.slots - 1)
    };

    let mut schedule: Vec<ScheduledEvent> = Vec::new();
    for slot in 1..scenario.slots {
        schedule.push(ScheduledEvent {
            at: Duration::from_millis(u64::from(slot) * scenario.slot_ms),
            slot,
            action: Action::EndSlot,
        });
    }
    for storm in &scenario.storms {
        schedule.push(ScheduledEvent {
            at: Duration::from_millis(storm.from_ms),
            slot: slot_of(storm.from_ms),
            action: Action::StormOnset {
                storm: storm.name.clone(),
                providers: storm.group.clone(),
            },
        });
        schedule.push(ScheduledEvent {
            at: Duration::from_millis(storm.to_ms),
            slot: slot_of(storm.to_ms),
            action: Action::StormRecovered {
                storm: storm.name.clone(),
                providers: storm.group.clone(),
            },
        });
    }
    for churn in &scenario.churn {
        schedule.push(ScheduledEvent {
            at: Duration::from_millis(churn.leave_ms),
            slot: slot_of(churn.leave_ms),
            action: Action::Leave {
                provider: churn.provider.clone(),
            },
        });
        if let Some(rejoin_ms) = churn.rejoin_ms {
            schedule.push(ScheduledEvent {
                at: Duration::from_millis(rejoin_ms),
                slot: slot_of(rejoin_ms),
                action: Action::Rejoin {
                    provider: churn.provider.clone(),
                },
            });
        }
    }

    let mut total_requests = 0u64;
    for slot in 0..scenario.slots {
        let n = scenario.requests_in_slot(slot);
        if n == 0 {
            continue;
        }
        let phase = scenario.phase_for(slot);
        let burst = phase.map_or(0, |p| p.burst).max(1);
        let pattern = phase.map_or(&[] as &[QosClass], |p| p.classes.as_slice());
        let groups = n.div_ceil(burst);
        let slot_start = u128::from(u64::from(slot) * scenario.slot_ms) * 1_000_000;
        let slot_nanos = u128::from(scenario.slot_ms) * 1_000_000;
        for service in &scenario.services {
            total_requests += u64::from(n);
            for i in 0..n {
                // Spread batch leaders evenly through the slot; members of
                // one batch share their leader's instant, so the runner
                // issues them concurrently.
                let group = i / burst;
                let at_nanos = slot_start + slot_nanos * u128::from(group) / u128::from(groups);
                let class = if pattern.is_empty() {
                    service.class.unwrap_or_default()
                } else {
                    pattern[i as usize % pattern.len()]
                };
                schedule.push(ScheduledEvent {
                    at: Duration::from_nanos(at_nanos as u64),
                    slot,
                    action: Action::Request {
                        service: service.name.clone(),
                        class,
                    },
                });
            }
        }
    }

    // Stable sort: construction order breaks remaining ties (services in
    // declaration order, storms/churn in declaration order).
    schedule.sort_by(|a, b| a.at.cmp(&b.at).then(a.action.rank().cmp(&b.action.rank())));

    Ok(CompiledScenario {
        horizon,
        plans,
        schedule,
        total_requests,
    })
}

#[cfg(test)]
mod tests {
    use super::super::model::{
        BackgroundFaults, Churn, GatewayKnobs, LoadPhase, MsDef, Require, Scenario, ServiceDef,
        Storm,
    };
    use super::*;

    fn scenario() -> Scenario {
        Scenario {
            name: "compile-unit".to_string(),
            seed: 11,
            slots: 3,
            slot_ms: 100,
            requests_per_slot: 4,
            load: vec![LoadPhase {
                from_slot: 1,
                to_slot: 2,
                multiplier: 2.0,
                burst: 4,
                classes: Vec::new(),
            }],
            services: vec![ServiceDef {
                name: "svc".to_string(),
                microservices: vec![
                    MsDef {
                        name: "a".to_string(),
                        cost: 10.0,
                        latency_ms: 4.0,
                        reliability: 1.0,
                    },
                    MsDef {
                        name: "b".to_string(),
                        cost: 20.0,
                        latency_ms: 8.0,
                        reliability: 1.0,
                    },
                ],
                require: Require {
                    cost: 100.0,
                    latency_ms: 50.0,
                    reliability: 0.9,
                },
                penalty_k: None,
                quorum: None,
                class: None,
            }],
            storms: vec![Storm {
                name: "radio".to_string(),
                group: vec!["svc/a".to_string()],
                from_ms: 120,
                to_ms: 180,
            }],
            churn: vec![Churn {
                provider: "svc/b".to_string(),
                leave_ms: 210,
                rejoin_ms: Some(260),
            }],
            background: None,
            gateway: GatewayKnobs::default(),
        }
    }

    #[test]
    fn compilation_is_deterministic() {
        let a = compile(&scenario()).unwrap();
        let b = compile(&scenario()).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.plans, b.plans);
        assert_eq!(a.total_requests, 16, "4 + 8 + 4 requests");
    }

    #[test]
    fn storm_becomes_per_leaf_crash_window() {
        let compiled = compile(&scenario()).unwrap();
        let plan = &compiled.plans["svc/a"];
        assert_eq!(
            plan.events(),
            &[
                FaultEvent {
                    at: Duration::from_millis(120),
                    kind: FaultKind::Crash
                },
                FaultEvent {
                    at: Duration::from_millis(180),
                    kind: FaultKind::Recover
                },
            ]
        );
        assert!(compiled.plans["svc/b"].events().is_empty());
    }

    #[test]
    fn schedule_is_time_ordered_with_boundaries_first() {
        let compiled = compile(&scenario()).unwrap();
        for pair in compiled.schedule.windows(2) {
            assert!(pair[0].at <= pair[1].at, "schedule must be time-ordered");
        }
        // The slot-1 boundary sorts before the slot-1 burst at the same
        // instant.
        let boundary = compiled
            .schedule
            .iter()
            .position(|e| e.action == Action::EndSlot && e.at == Duration::from_millis(100))
            .unwrap();
        assert!(matches!(
            compiled.schedule[boundary + 1].action,
            Action::Request { .. }
        ));
    }

    #[test]
    fn burst_groups_share_an_instant() {
        let compiled = compile(&scenario()).unwrap();
        let slot1: Vec<&ScheduledEvent> = compiled
            .schedule
            .iter()
            .filter(|e| e.slot == 1 && matches!(e.action, Action::Request { .. }))
            .collect();
        assert_eq!(slot1.len(), 8);
        // burst = 4 ⇒ two batches of four sharing their instants.
        assert_eq!(slot1[0].at, slot1[3].at);
        assert_eq!(slot1[4].at, slot1[7].at);
        assert!(slot1[0].at < slot1[4].at);
    }

    #[test]
    fn storm_windows_union_with_background_crashes() {
        // A storm overlapping a background crash window must not let the
        // background Recover punch a hole in the storm: the compiled plan
        // has canonical disjoint windows.
        let mut s = scenario();
        s.load.clear(); // allow fractional reliabilities irrelevant here
        s.background = Some(BackgroundFaults {
            mean_time_between_ms: 40,
            mean_duration_ms: 30,
            crash_weight: 1,
            latency_weight: 1,
            latency_spike_ms: 64,
        });
        let compiled = compile(&s).unwrap();
        for plan in compiled.plans.values() {
            let mut depth = 0i32;
            let mut last_crash_at = None;
            for event in plan.events() {
                match event.kind {
                    FaultKind::Crash => {
                        depth += 1;
                        assert_eq!(depth, 1, "crash windows must not nest");
                        last_crash_at = Some(event.at);
                    }
                    FaultKind::Recover => {
                        depth -= 1;
                        assert_eq!(depth, 0, "recover must close an open window");
                        assert!(Some(event.at) > last_crash_at);
                    }
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "all crash windows must close");
        }
    }

    /// A scenario file may give a background weight anything a `u32` holds;
    /// validation checks only that one weight is positive. Summing these
    /// once overflowed while the fault plans were drawn.
    #[test]
    fn extreme_background_weights_compile() {
        let scenario = Scenario::from_json(
            r#"{
                "name": "heavy-weights", "seed": 3,
                "slots": 2, "slot_ms": 100, "requests_per_slot": 1,
                "load": [],
                "services": [{
                    "name": "svc",
                    "microservices": [
                        {"name": "a", "cost": 1.0, "latency_ms": 1.0, "reliability": 0.9}
                    ],
                    "require": {"cost": 10.0, "latency_ms": 10.0, "reliability": 0.5}
                }],
                "background": {
                    "mean_time_between_ms": 20, "mean_duration_ms": 10,
                    "crash_weight": 4294967295, "latency_weight": 1
                }
            }"#,
        )
        .unwrap();
        let compiled = compile(&scenario).unwrap();
        let events = compiled.plans["svc/a"].events();
        assert!(events.iter().any(|e| e.kind == FaultKind::Crash));
    }

    #[test]
    fn classes_stamp_from_phase_pattern_then_service_default() {
        let mut s = scenario();
        s.services[0].class = Some(QosClass::Bulk);
        s.load[0].classes = vec![
            QosClass::Critical,
            QosClass::Scavenger,
            QosClass::Scavenger,
            QosClass::Scavenger,
        ];
        let compiled = compile(&s).unwrap();
        let classes_in = |slot: u32| -> Vec<QosClass> {
            compiled
                .schedule
                .iter()
                .filter(|e| e.slot == slot)
                .filter_map(|e| match &e.action {
                    Action::Request { class, .. } => Some(*class),
                    _ => None,
                })
                .collect()
        };
        // Slot 0 has no phase: the service default applies.
        assert_eq!(classes_in(0), vec![QosClass::Bulk; 4]);
        // Slot 1's phase pattern cycles over the 8 scaled requests.
        assert_eq!(
            classes_in(1),
            vec![
                QosClass::Critical,
                QosClass::Scavenger,
                QosClass::Scavenger,
                QosClass::Scavenger,
                QosClass::Critical,
                QosClass::Scavenger,
                QosClass::Scavenger,
                QosClass::Scavenger,
            ]
        );
        // No class anywhere: everything is Interactive.
        let bare = compile(&scenario()).unwrap();
        assert!(bare.schedule.iter().all(|e| match &e.action {
            Action::Request { class, .. } => *class == QosClass::Interactive,
            _ => true,
        }));
    }

    #[test]
    fn invalid_scenarios_do_not_compile() {
        let mut s = scenario();
        s.slots = 0;
        assert!(compile(&s).is_err());
    }

    #[test]
    fn provider_seeds_differ_per_provider() {
        assert_ne!(provider_seed(1, "svc/a"), provider_seed(1, "svc/b"));
        assert_eq!(provider_seed(1, "svc/a"), provider_seed(1, "svc/a"));
    }
}
