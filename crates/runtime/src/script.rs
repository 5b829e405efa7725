//! Self-describing service scripts (paper Section IV.A).
//!
//! A service script tells the gateway everything it needs to provision an
//! edge service: which equivalent microservices can fulfil it (by
//! *capability*), their developer-supplied prior QoS, the service's QoS
//! requirements, the utility penalty `k`, and optionally a developer
//! default strategy (MOLE-style). Scripts live in the cloud service market
//! and are cached at the gateway after first download.

use serde::{Deserialize, Serialize};

use qce_strategy::{Qos, Requirements, Strategy, UtilityIndex};

use crate::message::RuntimeError;

/// One equivalent microservice entry in a service script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MsSpec {
    /// Human-readable microservice name (e.g. `"readTempSensor"`). Used in
    /// strategy expressions.
    pub name: String,
    /// The capability providers must implement (e.g. `"read-temp-sensor"`).
    pub capability: String,
    /// Developer-supplied prior QoS, used until the collector has real
    /// observations.
    pub prior: Qos,
}

/// A self-describing service script.
///
/// # Examples
///
/// ```
/// use qce_runtime::{MsSpec, ServiceScript};
/// use qce_strategy::{Qos, Requirements};
///
/// let script = ServiceScript::new(
///     "detect-temperature",
///     vec![
///         MsSpec {
///             name: "readTempSensor".into(),
///             capability: "read-temp-sensor".into(),
///             prior: Qos::new(50.0, 30.0, 0.7)?,
///         },
///         MsSpec {
///             name: "estTemp".into(),
///             capability: "est-temp".into(),
///             prior: Qos::new(50.0, 60.0, 0.7)?,
///         },
///     ],
///     Requirements::new(100.0, 100.0, 0.97)?,
/// );
/// assert_eq!(script.microservices.len(), 2);
/// script.validate()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceScript {
    /// Unique service id (the client-facing `ServiceID`).
    pub service_id: String,
    /// The equivalent microservices, in developer priority order. Their
    /// position is their [`MsId`](qce_strategy::MsId) in strategies.
    pub microservices: Vec<MsSpec>,
    /// QoS requirements imposed on the service.
    pub requirements: Requirements,
    /// Utility penalty factor `k` (> 1) for the generator.
    pub penalty_k: f64,
    /// Strategy to execute before the collector has data. `None` means the
    /// system default (speculative parallel, as in the paper's testbed
    /// experiments).
    pub default_strategy: Option<String>,
    /// Invocations per time slot: the generator re-runs at each slot
    /// boundary (the paper simulates 100 invocations per slot).
    pub slot_size: u32,
    /// Require this many *agreeing* results per request instead of the
    /// first success — the paper's §VII protection against malicious
    /// devices. `None` (the default) keeps first-success semantics.
    #[serde(default)]
    pub quorum: Option<usize>,
}

impl ServiceScript {
    /// Creates a script with the default penalty (`k = 2`), no developer
    /// default strategy, and the paper's 100-invocation slots.
    #[must_use]
    pub fn new(
        service_id: impl Into<String>,
        microservices: Vec<MsSpec>,
        requirements: Requirements,
    ) -> Self {
        ServiceScript {
            service_id: service_id.into(),
            microservices,
            requirements,
            penalty_k: qce_strategy::utility::DEFAULT_PENALTY,
            default_strategy: None,
            slot_size: 100,
            quorum: None,
        }
    }

    /// Names of the microservices, in [`MsId`](qce_strategy::MsId) order —
    /// the name table for parsing strategy expressions.
    #[must_use]
    pub fn ms_names(&self) -> Vec<&str> {
        self.microservices.iter().map(|m| m.name.as_str()).collect()
    }

    /// Parses the developer default strategy, if any.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] if the expression does not
    /// parse against this script's microservice names.
    pub fn parsed_default_strategy(&self) -> Result<Option<Strategy>, RuntimeError> {
        match &self.default_strategy {
            None => Ok(None),
            Some(text) => Strategy::parse_with_names(text, &self.ms_names())
                .map(Some)
                .map_err(|e| RuntimeError::InvalidScript {
                    reason: format!("default strategy {text:?}: {e}"),
                }),
        }
    }

    /// Validates the script's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] when the script has no
    /// microservices, duplicate names, an unparsable default strategy, an
    /// invalid penalty or requirement, or a zero slot size.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.microservices.is_empty() {
            return Err(RuntimeError::InvalidScript {
                reason: "script lists no microservices".to_string(),
            });
        }
        let mut names: Vec<&str> = self.ms_names();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.microservices.len() {
            return Err(RuntimeError::InvalidScript {
                reason: "duplicate microservice names".to_string(),
            });
        }
        let invalid = |e: qce_strategy::QosError| RuntimeError::InvalidScript {
            reason: e.to_string(),
        };
        UtilityIndex::new(self.penalty_k).map_err(invalid)?;
        self.requirements.validate().map_err(invalid)?;
        for prior in self.microservices.iter().map(|ms| ms.prior) {
            Qos::new(prior.cost(), prior.latency(), prior.reliability().value())
                .map_err(invalid)?;
        }
        if self.slot_size == 0 {
            return Err(RuntimeError::InvalidScript {
                reason: "slot size must be positive".to_string(),
            });
        }
        if let Some(q) = self.quorum {
            if q == 0 || q > self.microservices.len() {
                return Err(RuntimeError::InvalidScript {
                    reason: format!(
                        "quorum {q} must be between 1 and the number of microservices ({})",
                        self.microservices.len()
                    ),
                });
            }
        }
        self.parsed_default_strategy()?;
        Ok(())
    }

    /// Serializes the script to pretty JSON — the wire format of the
    /// service market.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("every field of a ServiceScript is serializable")
    }

    /// Parses a script from market JSON.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidScript`] on malformed JSON or an
    /// internally inconsistent script.
    pub fn from_json(json: &str) -> Result<Self, RuntimeError> {
        let script: ServiceScript =
            serde_json::from_str(json).map_err(|e| RuntimeError::InvalidScript {
                reason: e.to_string(),
            })?;
        script.validate()?;
        Ok(script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> MsSpec {
        MsSpec {
            name: name.to_string(),
            capability: format!("cap-{name}"),
            prior: Qos::new(50.0, 50.0, 0.7).unwrap(),
        }
    }

    fn script() -> ServiceScript {
        ServiceScript::new(
            "svc",
            vec![spec("alpha"), spec("beta"), spec("gamma")],
            Requirements::new(100.0, 100.0, 0.97).unwrap(),
        )
    }

    #[test]
    fn defaults_are_sane() {
        let s = script();
        assert_eq!(s.penalty_k, 2.0);
        assert_eq!(s.slot_size, 100);
        assert!(s.default_strategy.is_none());
        assert!(s.validate().is_ok());
        assert!(s.parsed_default_strategy().unwrap().is_none());
    }

    #[test]
    fn names_in_order() {
        assert_eq!(script().ms_names(), vec!["alpha", "beta", "gamma"]);
    }

    #[test]
    fn default_strategy_parses_against_names() {
        let mut s = script();
        s.default_strategy = Some("alpha-beta*gamma".to_string());
        let parsed = s.parsed_default_strategy().unwrap().unwrap();
        assert_eq!(parsed.len(), 3);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn unknown_name_in_default_strategy_rejected() {
        let mut s = script();
        s.default_strategy = Some("alpha-delta".to_string());
        assert!(matches!(
            s.validate(),
            Err(RuntimeError::InvalidScript { .. })
        ));
    }

    #[test]
    fn empty_script_rejected() {
        let s = ServiceScript::new("svc", vec![], Requirements::new(1.0, 1.0, 0.5).unwrap());
        assert!(s.validate().is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let s = ServiceScript::new(
            "svc",
            vec![spec("alpha"), spec("alpha")],
            Requirements::new(1.0, 1.0, 0.5).unwrap(),
        );
        assert!(s.validate().is_err());
    }

    #[test]
    fn bad_penalty_rejected() {
        let mut s = script();
        s.penalty_k = 1.0;
        assert!(s.validate().is_err());
        s.penalty_k = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn bad_penalty_is_reported_as_the_utility_index_reports_it() {
        let mut s = script();
        s.penalty_k = 0.5;
        let Err(RuntimeError::InvalidScript { reason }) = s.validate() else {
            panic!("a penalty of 0.5 must be rejected");
        };
        assert_eq!(
            reason,
            UtilityIndex::new(0.5).unwrap_err().to_string(),
            "one penalty rule, one message"
        );
    }

    #[test]
    fn invalid_requirements_rejected() {
        // The fields are public and deserialized unvetted, and Equation 1
        // divides by them: a script must not reach its first request with
        // a bound `Requirements::new` would have refused.
        for (cost, latency) in [(0.0, 100.0), (f64::NAN, 100.0), (100.0, -1.0)] {
            let mut s = script();
            s.requirements.cost = cost;
            s.requirements.latency = latency;
            assert!(
                matches!(s.validate(), Err(RuntimeError::InvalidScript { .. })),
                "cost={cost} latency={latency}"
            );
        }
        let mut s = script();
        s.requirements.cost = 0.0;
        let json = serde_json::to_string(&s).unwrap();
        assert!(matches!(
            ServiceScript::from_json(&json),
            Err(RuntimeError::InvalidScript { .. })
        ));
    }

    /// A prior `Qos::new` would refuse is refused, whether it is written
    /// into the struct or read from market JSON.
    #[test]
    fn out_of_domain_priors_rejected() {
        let json = serde_json::to_string(&script()).unwrap();
        for (field, good, bad) in [
            ("reliability", "0.7", "1.5"),
            ("reliability", "0.7", "-0.2"),
            ("cost", "50.0", "-10.0"),
            ("latency", "50.0", "-1.0"),
        ] {
            let good = format!("\"{field}\":{good}");
            assert!(json.contains(&good), "{json}");
            let json = json.replacen(&good, &format!("\"{field}\":{bad}"), 1);
            assert!(
                matches!(
                    ServiceScript::from_json(&json),
                    Err(RuntimeError::InvalidScript { .. })
                ),
                "{field} = {bad}"
            );
        }
        for (cost, latency) in [(-10.0, 50.0), (50.0, -1.0), (f64::NAN, 50.0)] {
            let mut s = script();
            s.microservices[1].prior.cost = cost;
            s.microservices[1].prior.latency = latency;
            assert!(
                matches!(s.validate(), Err(RuntimeError::InvalidScript { .. })),
                "cost={cost} latency={latency}"
            );
        }
    }

    #[test]
    fn zero_slot_rejected() {
        let mut s = script();
        s.slot_size = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn quorum_validation() {
        let mut s = script();
        s.quorum = Some(2);
        assert!(s.validate().is_ok());
        s.quorum = Some(0);
        assert!(s.validate().is_err());
        s.quorum = Some(4); // only 3 microservices
        assert!(s.validate().is_err());
    }

    #[test]
    fn quorum_defaults_to_none_in_old_json() {
        // Scripts published before the quorum field still parse.
        let mut s = script();
        s.quorum = None;
        let mut value: serde_json::Value = serde_json::from_str(&s.to_json()).unwrap();
        value.as_object_mut().unwrap().remove("quorum");
        let back = ServiceScript::from_json(&value.to_string()).unwrap();
        assert_eq!(back.quorum, None);
    }

    #[test]
    fn json_round_trip() {
        let mut s = script();
        s.default_strategy = Some("alpha*beta-gamma".to_string());
        let json = s.to_json();
        let back = ServiceScript::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ServiceScript::from_json("{not json").is_err());
        assert!(ServiceScript::from_json("{}").is_err());
    }

    #[test]
    fn from_json_validates() {
        let mut s = script();
        s.slot_size = 0;
        let json = serde_json::to_string(&s).unwrap();
        assert!(ServiceScript::from_json(&json).is_err());
    }
}
