//! Typed per-request invocation API: traffic classes and the [`Request`]
//! builder.
//!
//! The paper's QoS-consistency goal is *per request*, but a gateway that
//! treats all traffic as one class sheds blindly under overload: a bulk
//! scraper can starve a latency-critical alarm. [`QosClass`] splits
//! traffic into four tiers — modelled on DSCP's EF/AF/BE ladder — and the
//! gateway's admission control serves them with weighted shares
//! (see `DESIGN.md` §14). [`Request`] carries the class (plus optional
//! per-request deadline, requirement override, and payload) through the
//! single invocation path, [`Gateway::submit`](crate::Gateway::submit).

use std::fmt;
use std::str::FromStr;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use qce_strategy::Requirements;

/// Number of traffic classes (the length of [`QosClass::ALL`]).
pub const CLASS_COUNT: usize = 4;

/// Traffic class of a service request, highest priority first.
///
/// Classes shape *admission*, not execution: once admitted, every request
/// runs the slot's strategy identically. Under overload the per-service
/// admission queue dequeues classes by weighted share
/// ([`QosClass::weight`]), arriving [`Scavenger`](QosClass::Scavenger)
/// requests are shed first, and [`Critical`](QosClass::Critical) arrivals
/// preempt lower-class queue slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Latency-critical traffic (alarms, control loops). Never shed while
    /// a lower class occupies a queue slot; preempts those slots instead.
    Critical,
    /// Normal interactive traffic. The default for requests that do not
    /// state a class, so the pre-class API behaves exactly as before.
    #[default]
    Interactive,
    /// Throughput-oriented background work (batch jobs, prefetching).
    Bulk,
    /// Opportunistic traffic that only runs on spare capacity and is the
    /// first to be shed under overload (scrapers, speculative warming).
    Scavenger,
}

impl QosClass {
    /// Every class, highest priority first. Indexes agree with
    /// [`QosClass::index`].
    pub const ALL: [QosClass; CLASS_COUNT] = [
        QosClass::Critical,
        QosClass::Interactive,
        QosClass::Bulk,
        QosClass::Scavenger,
    ];

    /// Dense index of the class (0 = Critical … 3 = Scavenger), used for
    /// per-class counters and queues.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Weighted-share dequeue weight: out of every 15 admissions granted
    /// to a fully backlogged queue, Critical gets 8, Interactive 4, Bulk
    /// 2, and Scavenger 1 — strict enough to protect Critical, non-zero
    /// everywhere so no nonempty class is starved.
    #[must_use]
    pub fn weight(self) -> u32 {
        match self {
            QosClass::Critical => 8,
            QosClass::Interactive => 4,
            QosClass::Bulk => 2,
            QosClass::Scavenger => 1,
        }
    }

    /// Per-class default deadline, applied when neither the request nor
    /// the gateway configuration sets one. Only Critical carries a default
    /// (a Critical answer that arrives late is worthless); the other
    /// classes inherit the pre-class behaviour of no deadline.
    #[must_use]
    pub fn default_deadline(self) -> Option<Duration> {
        match self {
            QosClass::Critical => Some(Duration::from_millis(250)),
            _ => None,
        }
    }

    /// Per-class default utility requirement: the script's requirements
    /// with the reliability floor pulled toward the class's expectation.
    /// Critical tightens reliability to at least 99%; Bulk and Scavenger
    /// loosen it (to at most 90% / 50%) so background traffic does not
    /// trigger advisories meant for interactive clients; Interactive is
    /// the identity, preserving pre-class behaviour.
    #[must_use]
    pub fn default_requirement(self, base: &Requirements) -> Requirements {
        let reliability = base.reliability.percent() / 100.0;
        let adjusted = match self {
            QosClass::Critical => reliability.max(0.99),
            QosClass::Interactive => reliability,
            QosClass::Bulk => reliability.min(0.9),
            QosClass::Scavenger => reliability.min(0.5),
        };
        Requirements::new(base.cost, base.latency, adjusted)
            .unwrap_or_else(|_| unreachable!("clamped reliability stays in [0, 1]"))
    }
}

impl Serialize for QosClass {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> Deserialize<'de> for QosClass {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer)?
            .parse()
            .map_err(serde::de::Error::custom)
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            QosClass::Critical => "critical",
            QosClass::Interactive => "interactive",
            QosClass::Bulk => "bulk",
            QosClass::Scavenger => "scavenger",
        };
        f.write_str(name)
    }
}

impl FromStr for QosClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "critical" => Ok(QosClass::Critical),
            "interactive" => Ok(QosClass::Interactive),
            "bulk" => Ok(QosClass::Bulk),
            "scavenger" => Ok(QosClass::Scavenger),
            other => Err(format!(
                "unknown QoS class {other:?} (expected critical, interactive, bulk or scavenger)"
            )),
        }
    }
}

/// A typed service request, built fluently and submitted through
/// [`Gateway::submit`](crate::Gateway::submit).
///
/// Every field except the service id is optional; unset fields fall back
/// to the service's live overrides (see
/// [`Gateway::control`](crate::Gateway::control)), then to the gateway
/// configuration, then to the class defaults.
///
/// # Examples
///
/// ```
/// use qce_runtime::{QosClass, Request};
///
/// let request = Request::new("temp")
///     .class(QosClass::Critical)
///     .deadline_ms(50)
///     .payload(vec![1, 2, 3]);
/// assert_eq!(request.service(), "temp");
/// let (_, class, ..) = request.into_parts();
/// assert_eq!(class, Some(QosClass::Critical));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    service: String,
    class: Option<QosClass>,
    deadline: Option<Duration>,
    requirement: Option<Requirements>,
    payload: Vec<u8>,
}

impl Request {
    /// Starts a request for `service` with no class, deadline,
    /// requirement override, or payload.
    #[must_use]
    pub fn new(service: impl Into<String>) -> Self {
        Request {
            service: service.into(),
            class: None,
            deadline: None,
            requirement: None,
            payload: Vec::new(),
        }
    }

    /// Sets the traffic class.
    #[must_use]
    pub fn class(mut self, class: QosClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Sets a per-request deadline in milliseconds, measured from
    /// admission. Overrides the service's live deadline override and the
    /// gateway-wide [`request_deadline`](crate::GatewayConfig::request_deadline).
    #[must_use]
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }

    /// As [`Request::deadline_ms`], with a [`Duration`].
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the QoS requirement this request is judged against (the
    /// advisory in the response reports violations of *this* requirement
    /// instead of the script's).
    #[must_use]
    pub fn requirement(mut self, requirement: Requirements) -> Self {
        self.requirement = Some(requirement);
        self
    }

    /// Sets the opaque request payload.
    #[must_use]
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// The target service id.
    #[must_use]
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Consumes the request into its parts
    /// `(service, class, deadline, requirement, payload)`.
    #[must_use]
    pub fn into_parts(
        self,
    ) -> (
        String,
        Option<QosClass>,
        Option<Duration>,
        Option<Requirements>,
        Vec<u8>,
    ) {
        (
            self.service,
            self.class,
            self.deadline,
            self.requirement,
            self.payload,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_order_and_indexing_agree() {
        for (i, class) in QosClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        assert_eq!(QosClass::ALL.len(), CLASS_COUNT);
        assert!(QosClass::Critical < QosClass::Scavenger, "priority order");
    }

    #[test]
    fn weights_are_monotone_in_priority() {
        let weights: Vec<u32> = QosClass::ALL.iter().map(|c| c.weight()).collect();
        assert!(weights.windows(2).all(|w| w[0] > w[1]), "{weights:?}");
        assert!(weights.iter().all(|&w| w > 0), "no class is starved");
    }

    #[test]
    fn display_and_parse_round_trip() {
        for class in QosClass::ALL {
            assert_eq!(class.to_string().parse::<QosClass>().unwrap(), class);
        }
        assert_eq!("CRITICAL".parse::<QosClass>().unwrap(), QosClass::Critical);
        assert!("gold".parse::<QosClass>().is_err());
    }

    #[test]
    fn serde_uses_lowercase_names() {
        let json = serde_json::to_string(&QosClass::Scavenger).unwrap();
        assert_eq!(json, "\"scavenger\"");
        let back: QosClass = serde_json::from_str("\"critical\"").unwrap();
        assert_eq!(back, QosClass::Critical);
    }

    #[test]
    fn interactive_is_the_default_and_identity() {
        assert_eq!(QosClass::default(), QosClass::Interactive);
        let base = Requirements::new(100.0, 50.0, 0.7).unwrap();
        assert_eq!(QosClass::Interactive.default_requirement(&base), base);
        assert_eq!(QosClass::Interactive.default_deadline(), None);
    }

    #[test]
    fn class_requirements_pull_reliability_toward_the_tier() {
        let base = Requirements::new(100.0, 50.0, 0.7).unwrap();
        let critical = QosClass::Critical.default_requirement(&base);
        assert!((critical.reliability.percent() - 99.0).abs() < 1e-9);
        let bulk = QosClass::Bulk.default_requirement(&base);
        assert!(
            (bulk.reliability.percent() - 70.0).abs() < 1e-9,
            "under cap"
        );
        let scavenger = QosClass::Scavenger.default_requirement(&base);
        assert!((scavenger.reliability.percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn builder_accumulates_fields() {
        let req = Requirements::new(10.0, 10.0, 0.9).unwrap();
        let request = Request::new("svc")
            .class(QosClass::Bulk)
            .deadline_ms(75)
            .requirement(req)
            .payload(vec![7]);
        let (service, class, deadline, requirement, payload) = request.into_parts();
        assert_eq!(service, "svc");
        assert_eq!(class, Some(QosClass::Bulk));
        assert_eq!(deadline, Some(Duration::from_millis(75)));
        assert_eq!(requirement, Some(req));
        assert_eq!(payload, vec![7]);
    }

    #[test]
    fn bare_request_defers_everything() {
        let (_, class, deadline, requirement, payload) = Request::new("svc").into_parts();
        assert_eq!(class, None);
        assert_eq!(deadline, None);
        assert!(requirement.is_none());
        assert!(payload.is_empty());
    }
}
