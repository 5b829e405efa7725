//! The scenario DSL: a serde-round-trippable description of an
//! adversarial workload.
//!
//! A [`Scenario`] declares *what the world does* — diurnal load curves and
//! flash crowds ([`LoadPhase`]), correlated failure storms ([`Storm`]),
//! device churn ([`Churn`]), background fault noise ([`BackgroundFaults`]),
//! and a heterogeneous service market ([`ServiceDef`], mixed `M` and mixed
//! requirements) — without saying anything about *how* it is executed.
//! Compilation into per-provider fault plans and a virtual-clock schedule
//! lives in [`compile`](mod@super::compile); deterministic replay lives in
//! [`runner`](super::runner).
//!
//! All times in the DSL are integer milliseconds of *virtual* time, so
//! scenario files are exactly reproducible across platforms. Validation
//! returns typed [`ScenarioError`]s — a malformed scenario must never
//! panic the process that loads it.

use std::collections::BTreeSet;
use std::error::Error as StdError;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::request::QosClass;

/// Penalty factor `k` used when a [`ServiceDef`] does not override it.
pub const DEFAULT_PENALTY_K: f64 = 2.0;

/// A complete adversarial scenario.
///
/// Time is divided into `slots` slots of `slot_ms` virtual milliseconds.
/// Each slot issues `requests_per_slot` requests *per service*, scaled by
/// the [`LoadPhase`] covering the slot (1.0 when uncovered). Provider ids
/// follow the convention `"{service}/{microservice}"`; storms and churn
/// reference providers by those ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (reports and telemetry markers).
    pub name: String,
    /// Master seed: background fault plans and provider behaviour derive
    /// from it. Same seed ⇒ byte-identical replay.
    pub seed: u64,
    /// Number of time slots.
    pub slots: u32,
    /// Virtual duration of one slot, in milliseconds.
    pub slot_ms: u64,
    /// Baseline requests per slot, per service (before load scaling).
    pub requests_per_slot: u32,
    /// Load curve: phases scaling the baseline (diurnal curves, flash
    /// crowds). Phases must not overlap; uncovered slots run at 1.0.
    #[serde(default)]
    pub load: Vec<LoadPhase>,
    /// The service market (mixed `M`, mixed requirements).
    pub services: Vec<ServiceDef>,
    /// Correlated failure storms: named groups crashing together.
    #[serde(default)]
    pub storms: Vec<Storm>,
    /// Device churn: providers leaving (and possibly re-joining) mid-run.
    #[serde(default)]
    pub churn: Vec<Churn>,
    /// Seeded background fault noise applied to every provider.
    #[serde(default)]
    pub background: Option<BackgroundFaults>,
    /// Gateway knob overrides (admission limits, collector window, …).
    #[serde(default)]
    pub gateway: GatewayKnobs,
}

/// One phase of the load curve, covering slots `[from_slot, to_slot)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadPhase {
    /// First slot of the phase (inclusive).
    pub from_slot: u32,
    /// One past the last slot of the phase (exclusive).
    pub to_slot: u32,
    /// Multiplier applied to `requests_per_slot` (0.0 = lull, 8.0 = flash
    /// crowd). Must be finite and non-negative.
    pub multiplier: f64,
    /// Concurrency of the phase: requests are issued in simultaneous
    /// batches of this size (0 or 1 = strictly sequential). Batches larger
    /// than the admission capacity exercise shedding. Phases with
    /// `burst > 1` require every microservice reliability to be exactly
    /// 0.0 or 1.0, keeping replay deterministic (see DESIGN.md §13).
    #[serde(default)]
    pub burst: u32,
    /// Traffic-class pattern for requests issued during this phase: request
    /// `i` of a slot (per service) is stamped `classes[i % classes.len()]`.
    /// Empty (the default) falls back to the service's
    /// [`class`](ServiceDef::class).
    #[serde(default)]
    pub classes: Vec<QosClass>,
}

/// One service in the market.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDef {
    /// Service id (unique within the scenario).
    pub name: String,
    /// The equivalent microservices (the paper's `M`). One simulated
    /// provider is created per entry, with id `"{service}/{name}"`.
    pub microservices: Vec<MsDef>,
    /// QoS requirements the service must meet.
    pub require: Require,
    /// Utility penalty factor `k` (> 1); [`DEFAULT_PENALTY_K`] when absent.
    #[serde(default)]
    pub penalty_k: Option<f64>,
    /// Quorum size for agreement execution (§VII); `None` keeps
    /// first-success semantics.
    #[serde(default)]
    pub quorum: Option<usize>,
    /// Traffic class stamped on this service's requests when the covering
    /// load phase declares no [`classes`](LoadPhase::classes) pattern.
    /// `None` issues bare (classless) requests, which the gateway treats
    /// as [`QosClass::Interactive`].
    #[serde(default)]
    pub class: Option<QosClass>,
}

/// One equivalent microservice and the simulated device providing it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsDef {
    /// Microservice name (unique within its service).
    pub name: String,
    /// Cost charged per invocation.
    pub cost: f64,
    /// Execution latency in virtual milliseconds.
    pub latency_ms: f64,
    /// Per-invocation success probability in `[0, 1]`.
    pub reliability: f64,
}

/// Service QoS requirements (the script's `Requirements`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Require {
    /// Maximum acceptable per-request cost.
    pub cost: f64,
    /// Maximum acceptable latency, in virtual milliseconds.
    pub latency_ms: f64,
    /// Minimum acceptable reliability in `(0, 1]`.
    pub reliability: f64,
}

/// A correlated failure storm: every provider in `group` crashes at
/// `from_ms` and recovers at `to_ms` (half-open window, virtual time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Storm {
    /// Storm name (telemetry markers, lag reporting).
    pub name: String,
    /// Provider ids (`"{service}/{microservice}"`) sharing the failed
    /// radio link or power domain.
    pub group: Vec<String>,
    /// Onset, in virtual milliseconds.
    pub from_ms: u64,
    /// Recovery, in virtual milliseconds (exclusive; must exceed
    /// `from_ms` and fit the horizon).
    pub to_ms: u64,
}

/// Device churn for one provider: it leaves at `leave_ms` and, if
/// `rejoin_ms` is set, re-joins then.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Churn {
    /// Provider id (`"{service}/{microservice}"`).
    pub provider: String,
    /// Departure instant, in virtual milliseconds.
    pub leave_ms: u64,
    /// Re-join instant (must exceed `leave_ms`); `None` = gone for good.
    #[serde(default)]
    pub rejoin_ms: Option<u64>,
}

/// Seeded background fault noise, applied to every provider on top of the
/// storms (see [`FaultProfile`](crate::FaultProfile)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundFaults {
    /// Mean healthy time between fault onsets, in virtual milliseconds.
    pub mean_time_between_ms: u64,
    /// Mean fault-window duration, in virtual milliseconds.
    pub mean_duration_ms: u64,
    /// Relative weight of crash faults.
    pub crash_weight: u32,
    /// Relative weight of latency-spike faults.
    pub latency_weight: u32,
    /// Extra latency during a spike, in virtual milliseconds.
    #[serde(default)]
    pub latency_spike_ms: u64,
}

/// Gateway configuration overrides. Absent knobs keep
/// [`GatewayConfig::default`](crate::GatewayConfig) values.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayKnobs {
    /// Collector sliding-window size.
    #[serde(default)]
    pub collector_window: Option<u32>,
    /// Maximum concurrent invocations per service (0 = unlimited).
    #[serde(default)]
    pub max_in_flight: Option<u32>,
    /// Admission-queue capacity per service.
    #[serde(default)]
    pub admission_queue: Option<u32>,
}

/// Typed validation/parsing errors for scenarios. Malformed input returns
/// one of these — never a panic.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The JSON text could not be parsed into a scenario.
    Parse {
        /// Parser diagnostic.
        reason: String,
    },
    /// A required collection or dimension is empty (no services, zero
    /// slots, a service without microservices, …).
    Empty {
        /// What is empty.
        what: String,
    },
    /// Two entities share a name that must be unique.
    Duplicate {
        /// The colliding name and its namespace.
        what: String,
    },
    /// A numeric field is NaN or infinite.
    NonFinite {
        /// The offending field.
        field: String,
    },
    /// A numeric field is outside its legal domain.
    OutOfRange {
        /// The offending field.
        field: String,
        /// Why it is rejected.
        reason: String,
    },
    /// A storm's provider group is empty.
    EmptyStormGroup {
        /// The storm's name.
        storm: String,
    },
    /// A storm or churn entry references a provider id that no service
    /// defines.
    UnknownProvider {
        /// Where the reference appears.
        context: String,
        /// The unresolved provider id.
        provider: String,
    },
    /// A time window is empty, reversed, or exceeds the horizon.
    BadWindow {
        /// Which window is malformed and why.
        context: String,
    },
    /// Two churn windows for the same provider overlap.
    OverlappingChurn {
        /// The provider with overlapping windows.
        provider: String,
    },
    /// A load phase with `burst > 1` covers a microservice whose
    /// reliability is not exactly 0 or 1, which would make concurrent
    /// replay nondeterministic.
    NondeterministicBurst {
        /// The offending microservice (`"{service}/{name}"`).
        microservice: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { reason } => write!(f, "scenario parse error: {reason}"),
            ScenarioError::Empty { what } => write!(f, "scenario has empty {what}"),
            ScenarioError::Duplicate { what } => write!(f, "duplicate {what}"),
            ScenarioError::NonFinite { field } => {
                write!(f, "field {field} must be a finite number")
            }
            ScenarioError::OutOfRange { field, reason } => {
                write!(f, "field {field} out of range: {reason}")
            }
            ScenarioError::EmptyStormGroup { storm } => {
                write!(f, "storm {storm:?} has an empty provider group")
            }
            ScenarioError::UnknownProvider { context, provider } => {
                write!(f, "{context} references unknown provider {provider:?}")
            }
            ScenarioError::BadWindow { context } => write!(f, "bad time window: {context}"),
            ScenarioError::OverlappingChurn { provider } => {
                write!(f, "overlapping churn windows for provider {provider:?}")
            }
            ScenarioError::NondeterministicBurst { microservice } => write!(
                f,
                "burst phases require reliability 0 or 1, but {microservice:?} has a \
                 fractional reliability (deterministic replay would be lost)"
            ),
        }
    }
}

impl StdError for ScenarioError {}

fn ensure_finite(value: f64, field: &str) -> Result<(), ScenarioError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(ScenarioError::NonFinite {
            field: field.to_string(),
        })
    }
}

impl Scenario {
    /// The total virtual horizon, in milliseconds.
    #[must_use]
    pub fn horizon_ms(&self) -> u64 {
        u64::from(self.slots) * self.slot_ms
    }

    /// All provider ids defined by the service market
    /// (`"{service}/{microservice}"`), sorted.
    #[must_use]
    pub fn provider_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .services
            .iter()
            .flat_map(|s| {
                s.microservices
                    .iter()
                    .map(move |m| format!("{}/{}", s.name, m.name))
            })
            .collect();
        ids.sort();
        ids
    }

    /// The load phase covering `slot`, if any.
    #[must_use]
    pub fn phase_for(&self, slot: u32) -> Option<&LoadPhase> {
        self.load
            .iter()
            .find(|p| p.from_slot <= slot && slot < p.to_slot)
    }

    /// Requests to issue in `slot` for each service: the baseline scaled
    /// by the covering load phase.
    #[must_use]
    pub fn requests_in_slot(&self, slot: u32) -> u32 {
        let multiplier = self.phase_for(slot).map_or(1.0, |p| p.multiplier);
        let scaled = (f64::from(self.requests_per_slot) * multiplier).round();
        if scaled <= 0.0 {
            0
        } else {
            scaled as u32
        }
    }

    /// Validates the scenario. Every reachable inconsistency maps to a
    /// typed [`ScenarioError`]; valid scenarios compile and replay without
    /// panicking.
    ///
    /// # Errors
    ///
    /// See [`ScenarioError`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::Empty {
                what: "name".to_string(),
            });
        }
        if self.slots == 0 {
            return Err(ScenarioError::Empty {
                what: "slots".to_string(),
            });
        }
        if self.slot_ms == 0 {
            return Err(ScenarioError::Empty {
                what: "slot_ms".to_string(),
            });
        }
        if self.services.is_empty() {
            return Err(ScenarioError::Empty {
                what: "services".to_string(),
            });
        }
        self.validate_services()?;
        self.validate_load()?;
        let known: BTreeSet<String> = self.provider_ids().into_iter().collect();
        self.validate_storms(&known)?;
        self.validate_churn(&known)?;
        self.validate_background()?;
        if self.gateway.collector_window == Some(0) {
            return Err(ScenarioError::OutOfRange {
                field: "gateway.collector_window".to_string(),
                reason: "the collector window must hold at least one observation".to_string(),
            });
        }
        Ok(())
    }

    fn validate_services(&self) -> Result<(), ScenarioError> {
        let mut service_names = BTreeSet::new();
        for service in &self.services {
            if service.name.is_empty() {
                return Err(ScenarioError::Empty {
                    what: "service name".to_string(),
                });
            }
            if !service_names.insert(&service.name) {
                return Err(ScenarioError::Duplicate {
                    what: format!("service {:?}", service.name),
                });
            }
            if service.microservices.is_empty() {
                return Err(ScenarioError::Empty {
                    what: format!("microservices of service {:?}", service.name),
                });
            }
            let mut ms_names = BTreeSet::new();
            for ms in &service.microservices {
                let field = format!("{}/{}", service.name, ms.name);
                if ms.name.is_empty() {
                    return Err(ScenarioError::Empty {
                        what: format!("microservice name in service {:?}", service.name),
                    });
                }
                if !ms_names.insert(&ms.name) {
                    return Err(ScenarioError::Duplicate {
                        what: format!("microservice {field:?}"),
                    });
                }
                ensure_finite(ms.cost, &format!("{field}.cost"))?;
                ensure_finite(ms.latency_ms, &format!("{field}.latency_ms"))?;
                ensure_finite(ms.reliability, &format!("{field}.reliability"))?;
                if ms.cost < 0.0 {
                    return Err(ScenarioError::OutOfRange {
                        field: format!("{field}.cost"),
                        reason: "must be non-negative".to_string(),
                    });
                }
                if ms.latency_ms < 0.0 {
                    return Err(ScenarioError::OutOfRange {
                        field: format!("{field}.latency_ms"),
                        reason: "must be non-negative".to_string(),
                    });
                }
                if !(0.0..=1.0).contains(&ms.reliability) {
                    return Err(ScenarioError::OutOfRange {
                        field: format!("{field}.reliability"),
                        reason: "must be a probability in [0, 1]".to_string(),
                    });
                }
            }
            let req = &service.require;
            let prefix = format!("{}.require", service.name);
            ensure_finite(req.cost, &format!("{prefix}.cost"))?;
            ensure_finite(req.latency_ms, &format!("{prefix}.latency_ms"))?;
            ensure_finite(req.reliability, &format!("{prefix}.reliability"))?;
            if req.cost <= 0.0 || req.latency_ms <= 0.0 {
                return Err(ScenarioError::OutOfRange {
                    field: prefix,
                    reason: "cost and latency requirements must be positive".to_string(),
                });
            }
            if !(0.0 < req.reliability && req.reliability <= 1.0) {
                return Err(ScenarioError::OutOfRange {
                    field: format!("{prefix}.reliability"),
                    reason: "must lie in (0, 1]".to_string(),
                });
            }
            if let Some(k) = service.penalty_k {
                ensure_finite(k, &format!("{}.penalty_k", service.name))?;
                if k <= 1.0 {
                    return Err(ScenarioError::OutOfRange {
                        field: format!("{}.penalty_k", service.name),
                        reason: "penalty must exceed 1".to_string(),
                    });
                }
            }
            if let Some(q) = service.quorum {
                if q == 0 || q > service.microservices.len() {
                    return Err(ScenarioError::OutOfRange {
                        field: format!("{}.quorum", service.name),
                        reason: format!(
                            "must lie in [1, {}] (the service's M)",
                            service.microservices.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn validate_load(&self) -> Result<(), ScenarioError> {
        let mut sorted: Vec<&LoadPhase> = self.load.iter().collect();
        sorted.sort_by_key(|p| p.from_slot);
        for phase in &sorted {
            let context = format!("load phase [{}, {})", phase.from_slot, phase.to_slot);
            if phase.from_slot >= phase.to_slot {
                return Err(ScenarioError::BadWindow {
                    context: format!("{context} is empty or reversed"),
                });
            }
            if phase.to_slot > self.slots {
                return Err(ScenarioError::BadWindow {
                    context: format!("{context} exceeds the {}-slot horizon", self.slots),
                });
            }
            ensure_finite(phase.multiplier, &format!("{context}.multiplier"))?;
            if phase.multiplier < 0.0 {
                return Err(ScenarioError::OutOfRange {
                    field: format!("{context}.multiplier"),
                    reason: "must be non-negative".to_string(),
                });
            }
        }
        for pair in sorted.windows(2) {
            if pair[1].from_slot < pair[0].to_slot {
                return Err(ScenarioError::BadWindow {
                    context: format!(
                        "load phases [{}, {}) and [{}, {}) overlap",
                        pair[0].from_slot, pair[0].to_slot, pair[1].from_slot, pair[1].to_slot
                    ),
                });
            }
        }
        // Concurrent batches replay deterministically only when per-leg
        // outcomes cannot depend on which client drew first from a
        // provider's RNG — i.e. the provider never flips coins.
        if self.load.iter().any(|p| p.burst > 1) {
            for service in &self.services {
                for ms in &service.microservices {
                    if ms.reliability != 0.0 && ms.reliability != 1.0 {
                        return Err(ScenarioError::NondeterministicBurst {
                            microservice: format!("{}/{}", service.name, ms.name),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_storms(&self, known: &BTreeSet<String>) -> Result<(), ScenarioError> {
        let horizon = self.horizon_ms();
        let mut names = BTreeSet::new();
        for storm in &self.storms {
            if !names.insert(&storm.name) {
                return Err(ScenarioError::Duplicate {
                    what: format!("storm {:?}", storm.name),
                });
            }
            if storm.group.is_empty() {
                return Err(ScenarioError::EmptyStormGroup {
                    storm: storm.name.clone(),
                });
            }
            for provider in &storm.group {
                if !known.contains(provider) {
                    return Err(ScenarioError::UnknownProvider {
                        context: format!("storm {:?}", storm.name),
                        provider: provider.clone(),
                    });
                }
            }
            if storm.from_ms >= storm.to_ms || storm.to_ms > horizon {
                return Err(ScenarioError::BadWindow {
                    context: format!(
                        "storm {:?} window [{}, {}) (horizon {horizon} ms)",
                        storm.name, storm.from_ms, storm.to_ms
                    ),
                });
            }
        }
        Ok(())
    }

    fn validate_churn(&self, known: &BTreeSet<String>) -> Result<(), ScenarioError> {
        let horizon = self.horizon_ms();
        let mut by_provider: std::collections::BTreeMap<&str, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for churn in &self.churn {
            if !known.contains(&churn.provider) {
                return Err(ScenarioError::UnknownProvider {
                    context: "churn entry".to_string(),
                    provider: churn.provider.clone(),
                });
            }
            let end = churn.rejoin_ms.unwrap_or(horizon);
            if churn.leave_ms >= end || end > horizon {
                return Err(ScenarioError::BadWindow {
                    context: format!(
                        "churn of {:?}: [{}, {end}) (horizon {horizon} ms)",
                        churn.provider, churn.leave_ms
                    ),
                });
            }
            by_provider
                .entry(churn.provider.as_str())
                .or_default()
                .push((churn.leave_ms, end));
        }
        for (provider, mut windows) in by_provider {
            windows.sort_unstable();
            if windows.windows(2).any(|pair| pair[1].0 < pair[0].1) {
                return Err(ScenarioError::OverlappingChurn {
                    provider: provider.to_string(),
                });
            }
        }
        Ok(())
    }

    fn validate_background(&self) -> Result<(), ScenarioError> {
        if let Some(bg) = &self.background {
            if bg.mean_time_between_ms == 0 || bg.mean_duration_ms == 0 {
                return Err(ScenarioError::OutOfRange {
                    field: "background".to_string(),
                    reason: "fault process means must be positive".to_string(),
                });
            }
            if bg.crash_weight == 0 && bg.latency_weight == 0 {
                return Err(ScenarioError::OutOfRange {
                    field: "background".to_string(),
                    reason: "at least one fault weight must be positive".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Serializes the scenario to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenarios always serialize")
    }

    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] on malformed JSON; any other
    /// [`ScenarioError`] from [`Scenario::validate`].
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        let scenario: Scenario = serde_json::from_str(text).map_err(|e| ScenarioError::Parse {
            reason: e.to_string(),
        })?;
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn small() -> Scenario {
        Scenario {
            name: "unit".to_string(),
            seed: 7,
            slots: 4,
            slot_ms: 100,
            requests_per_slot: 10,
            load: vec![LoadPhase {
                from_slot: 1,
                to_slot: 3,
                multiplier: 2.0,
                burst: 0,
                classes: Vec::new(),
            }],
            services: vec![ServiceDef {
                name: "svc".to_string(),
                microservices: vec![
                    MsDef {
                        name: "a".to_string(),
                        cost: 10.0,
                        latency_ms: 4.0,
                        reliability: 0.9,
                    },
                    MsDef {
                        name: "b".to_string(),
                        cost: 20.0,
                        latency_ms: 8.0,
                        reliability: 0.95,
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
                group: vec!["svc/a".to_string(), "svc/b".to_string()],
                from_ms: 150,
                to_ms: 250,
            }],
            churn: vec![Churn {
                provider: "svc/b".to_string(),
                leave_ms: 310,
                rejoin_ms: Some(360),
            }],
            background: None,
            gateway: GatewayKnobs::default(),
        }
    }

    #[test]
    fn valid_scenario_passes() {
        small().validate().unwrap();
    }

    #[test]
    fn round_trips_through_json() {
        let s = small();
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn load_scaling_and_phases() {
        let s = small();
        assert_eq!(s.requests_in_slot(0), 10);
        assert_eq!(s.requests_in_slot(1), 20);
        assert_eq!(s.requests_in_slot(2), 20);
        assert_eq!(s.requests_in_slot(3), 10);
        assert_eq!(s.horizon_ms(), 400);
        assert_eq!(s.provider_ids(), vec!["svc/a", "svc/b"]);
    }

    #[test]
    fn rejects_empty_storm_group() {
        let mut s = small();
        s.storms[0].group.clear();
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::EmptyStormGroup { storm }) if storm == "radio"
        ));
    }

    #[test]
    fn rejects_overlapping_churn() {
        let mut s = small();
        s.churn.push(Churn {
            provider: "svc/b".to_string(),
            leave_ms: 350,
            rejoin_ms: Some(390),
        });
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::OverlappingChurn { provider }) if provider == "svc/b"
        ));
    }

    #[test]
    fn rejects_nan_load_multiplier() {
        let mut s = small();
        s.load[0].multiplier = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::NonFinite { field }) if field.contains("multiplier")
        ));
    }

    #[test]
    fn rejects_unknown_storm_provider() {
        let mut s = small();
        s.storms[0].group.push("ghost/x".to_string());
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::UnknownProvider { provider, .. }) if provider == "ghost/x"
        ));
    }

    #[test]
    fn rejects_burst_with_fractional_reliability() {
        let mut s = small();
        s.load[0].burst = 8;
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::NondeterministicBurst { microservice }) if microservice == "svc/a"
        ));
    }

    #[test]
    fn rejects_zero_collector_window() {
        let mut s = small();
        s.gateway.collector_window = Some(0);
        assert!(matches!(
            s.validate(),
            Err(ScenarioError::OutOfRange { field, .. }) if field == "gateway.collector_window"
        ));
        s.gateway.collector_window = Some(1);
        s.validate().unwrap();
    }

    #[test]
    fn classes_round_trip_and_pre_class_json_still_parses() {
        // Pre-class scenario files carry no class keys; they must parse
        // with every request defaulting to bare/Interactive.
        let parsed = Scenario::from_json(
            r#"{
                "name": "legacy", "seed": 1,
                "slots": 1, "slot_ms": 100, "requests_per_slot": 1,
                "load": [{"from_slot": 0, "to_slot": 1, "multiplier": 1.0}],
                "services": [{
                    "name": "svc",
                    "microservices": [
                        {"name": "a", "cost": 1.0, "latency_ms": 1.0, "reliability": 1.0}
                    ],
                    "require": {"cost": 10.0, "latency_ms": 10.0, "reliability": 0.5}
                }]
            }"#,
        )
        .unwrap();
        assert_eq!(parsed.services[0].class, None);
        assert!(parsed.load[0].classes.is_empty());

        let mut s = small();
        s.services[0].class = Some(QosClass::Bulk);
        s.load[0].classes = vec![QosClass::Critical, QosClass::Scavenger];
        let text = s.to_json();
        assert!(text.contains("\"bulk\""));
        assert!(text.contains("\"critical\""));
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejects_malformed_json_with_typed_error() {
        assert!(matches!(
            Scenario::from_json("{ not json"),
            Err(ScenarioError::Parse { .. })
        ));
    }

    #[test]
    fn errors_render_usefully() {
        let e = ScenarioError::OverlappingChurn {
            provider: "svc/a".to_string(),
        };
        assert!(e.to_string().contains("svc/a"));
        let e = ScenarioError::BadWindow {
            context: "storm".to_string(),
        };
        assert!(e.to_string().contains("storm"));
    }
}
