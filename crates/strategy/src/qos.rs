//! QoS model: per-microservice and per-strategy quality attributes.
//!
//! The paper (Section III.C.1) considers three QoS attributes:
//!
//! * **cost** — energy/price charged for an execution (charged in full as
//!   soon as the execution starts, per Assumption 2);
//! * **latency** — time taken to complete an execution;
//! * **reliability** — probability that an execution succeeds.
//!
//! Attributes split into two polarities (Section IV.C): *lower-is-better*
//! (cost, latency) and *higher-is-better* (reliability).

use serde::{Deserialize, Serialize};

use crate::error::{EstimateError, QosError};

/// Identifier of an equivalent microservice within a strategy.
///
/// Ids are small dense indices into an [`EnvQos`] table. The first 26 ids
/// display as the letters `a`–`z` used throughout the paper; larger ids
/// display as `ms26`, `ms27`, …
///
/// # Examples
///
/// ```
/// use qce_strategy::MsId;
///
/// assert_eq!(MsId(0).to_string(), "a");
/// assert_eq!(MsId(25).to_string(), "z");
/// assert_eq!(MsId(30).to_string(), "ms30");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct MsId(pub usize);

impl MsId {
    /// Returns the underlying index.
    ///
    /// ```
    /// use qce_strategy::MsId;
    /// assert_eq!(MsId(3).index(), 3);
    /// ```
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Parses the default display form produced by [`MsId`]'s `Display`
    /// implementation: a single letter `a`–`z` or `ms<n>`.
    ///
    /// ```
    /// use qce_strategy::MsId;
    /// assert_eq!(MsId::from_name("c"), Some(MsId(2)));
    /// assert_eq!(MsId::from_name("ms42"), Some(MsId(42)));
    /// assert_eq!(MsId::from_name("hello"), None);
    /// ```
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        let mut chars = name.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) if c.is_ascii_lowercase() => Some(MsId(c as usize - 'a' as usize)),
            _ => name
                .strip_prefix("ms")
                .and_then(|rest| rest.parse::<usize>().ok())
                .map(MsId),
        }
    }
}

impl MsId {
    /// Writes what `Display` prints. Generic, so that rendering into a
    /// `String` pushes the letter instead of going through a `Formatter`.
    pub(crate) fn write_name(self, out: &mut impl fmt::Write) -> fmt::Result {
        if self.0 < 26 {
            out.write_char((b'a' + self.0 as u8) as char)
        } else {
            write!(out, "ms{}", self.0)
        }
    }
}

impl fmt::Display for MsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_name(f)
    }
}

impl From<usize> for MsId {
    fn from(index: usize) -> Self {
        MsId(index)
    }
}

use std::fmt;

/// A probability of successful execution, guaranteed to lie within `[0, 1]`.
///
/// # Examples
///
/// ```
/// use qce_strategy::Reliability;
///
/// let r = Reliability::new(0.7)?;
/// assert_eq!(r.value(), 0.7);
/// assert!((r.failure_probability() - 0.3).abs() < 1e-12);
/// assert!(Reliability::new(1.2).is_err());
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize)]
#[serde(transparent)]
pub struct Reliability(f64);

/// Read through [`Reliability::new`]: the wire format is the bare
/// probability, and a value outside `[0, 1]` is refused as the constructor
/// refuses it.
impl<'de> Deserialize<'de> for Reliability {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Reliability::new(f64::deserialize(deserializer)?).map_err(serde::de::Error::custom)
    }
}

impl Reliability {
    /// A reliability of exactly one: the execution always succeeds.
    pub const ALWAYS: Reliability = Reliability(1.0);
    /// A reliability of exactly zero: the execution always fails.
    pub const NEVER: Reliability = Reliability(0.0);

    /// Creates a reliability from a probability.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::ReliabilityOutOfRange`] if `p` is not a finite
    /// number within `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, QosError> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(Reliability(p))
        } else {
            Err(QosError::ReliabilityOutOfRange(p))
        }
    }

    /// Creates a reliability, clamping out-of-range values into `[0, 1]`.
    ///
    /// Useful when sampling reliabilities from a random range that may
    /// exceed the legal domain (the paper's Table III configurations do,
    /// e.g. average 80% with Δ = 50).
    ///
    /// NaN reads as [`Reliability::NEVER`]: a success probability nothing
    /// can be said about is the pessimistic one.
    // Every candidate of an exhaustive search ends here; without the hint
    // the synthesis engine does not inline it and runs about 6 % slower.
    #[must_use]
    #[inline]
    pub fn clamped(p: f64) -> Self {
        Reliability(if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) })
    }

    /// Returns the success probability as a value in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the success probability as a percentage in `[0, 100]`.
    #[must_use]
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Returns the complementary failure probability `1 - r`.
    #[must_use]
    pub fn failure_probability(self) -> f64 {
        1.0 - self.0
    }
}

impl Default for Reliability {
    fn default() -> Self {
        Reliability::ALWAYS
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.percent())
    }
}

/// The three QoS attributes of a microservice or of a whole strategy.
///
/// For a microservice these are the environment-specific *average* values
/// observed by the collector; for a strategy they are the averages estimated
/// by [`estimate`](crate::estimate::estimate) over repeated executions.
///
/// # Examples
///
/// ```
/// use qce_strategy::Qos;
///
/// let q = Qos::new(50.0, 50.0, 0.6)?;
/// assert_eq!(q.cost, 50.0);
/// assert_eq!(q.reliability.value(), 0.6);
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Qos {
    /// Average execution cost (abstract units; energy in the paper).
    pub cost: f64,
    /// Average execution latency (abstract time units; ms in the paper).
    pub latency: f64,
    /// Probability of a successful execution.
    pub reliability: Reliability,
}

impl Qos {
    /// Creates a QoS triple, validating each attribute's domain.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if cost or latency is negative or non-finite,
    /// or if reliability lies outside `[0, 1]`.
    pub fn new(cost: f64, latency: f64, reliability: f64) -> Result<Self, QosError> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(QosError::InvalidCost(cost));
        }
        if !latency.is_finite() || latency < 0.0 {
            return Err(QosError::InvalidLatency(latency));
        }
        Ok(Qos {
            cost,
            latency,
            reliability: Reliability::new(reliability)?,
        })
    }

    /// Returns the value of the given attribute, with reliability expressed
    /// as a probability in `[0, 1]`.
    #[must_use]
    pub fn attribute(&self, attr: Attribute) -> f64 {
        match attr {
            Attribute::Cost => self.cost,
            Attribute::Latency => self.latency,
            Attribute::Reliability => self.reliability.value(),
        }
    }
}

impl fmt::Display for Qos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cost={:.1}, latency={:.1}, reliability={}]",
            self.cost, self.latency, self.reliability
        )
    }
}

/// One of the three QoS attributes tracked by the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attribute {
    /// Execution cost; lower is better.
    Cost,
    /// Execution latency; lower is better.
    Latency,
    /// Execution success probability; higher is better.
    Reliability,
}

impl Attribute {
    /// All attributes, in the paper's `{c, l, r}` order.
    pub const ALL: [Attribute; 3] = [Attribute::Cost, Attribute::Latency, Attribute::Reliability];

    /// Returns the optimization polarity of this attribute (Section IV.C's
    /// `N₋` / `N₊` split).
    ///
    /// ```
    /// use qce_strategy::{Attribute, Polarity};
    /// assert_eq!(Attribute::Cost.polarity(), Polarity::LowerIsBetter);
    /// assert_eq!(Attribute::Reliability.polarity(), Polarity::HigherIsBetter);
    /// ```
    #[must_use]
    pub const fn polarity(self) -> Polarity {
        match self {
            Attribute::Cost | Attribute::Latency => Polarity::LowerIsBetter,
            Attribute::Reliability => Polarity::HigherIsBetter,
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Attribute::Cost => "cost",
            Attribute::Latency => "latency",
            Attribute::Reliability => "reliability",
        };
        f.write_str(name)
    }
}

/// Whether larger or smaller values of an attribute are preferable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// Smaller values are better (`N₋`: cost, latency).
    LowerIsBetter,
    /// Larger values are better (`N₊`: reliability, trust level).
    HigherIsBetter,
}

impl Polarity {
    /// Compares two attribute values under this polarity.
    ///
    /// Returns a positive ordering when `lhs` is *better* than `rhs`, i.e.
    /// `Ordering::Greater` means `lhs ≻ rhs` in the paper's notation.
    ///
    /// ```
    /// use std::cmp::Ordering;
    /// use qce_strategy::Polarity;
    ///
    /// assert_eq!(Polarity::LowerIsBetter.compare(10.0, 20.0), Ordering::Greater);
    /// assert_eq!(Polarity::HigherIsBetter.compare(0.9, 0.7), Ordering::Greater);
    /// assert_eq!(Polarity::HigherIsBetter.compare(0.7, 0.7), Ordering::Equal);
    /// ```
    #[must_use]
    pub fn compare(self, lhs: f64, rhs: f64) -> std::cmp::Ordering {
        let ord = lhs.partial_cmp(&rhs).expect("QoS values must not be NaN");
        match self {
            Polarity::HigherIsBetter => ord,
            Polarity::LowerIsBetter => ord.reverse(),
        }
    }

    /// Returns `true` when `value` is at least as good as `requirement`
    /// (`value ⪰ requirement`).
    #[must_use]
    pub fn satisfies(self, value: f64, requirement: f64) -> bool {
        self.compare(value, requirement) != std::cmp::Ordering::Less
    }
}

/// QoS requirements imposed on an edge service (the `Q_n` of Section IV.C).
///
/// # Examples
///
/// ```
/// use qce_strategy::{Qos, Requirements};
///
/// // The simulation experiments use Qc = 100, Ql = 100, Qr = 97%.
/// let req = Requirements::new(100.0, 100.0, 0.97)?;
/// let good = Qos::new(80.0, 90.0, 0.99)?;
/// let bad = Qos::new(80.0, 120.0, 0.99)?;
/// assert!(req.satisfied_by(&good));
/// assert!(!req.satisfied_by(&bad));
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Requirements {
    /// Maximum acceptable average cost (`Q_c`).
    pub cost: f64,
    /// Maximum acceptable average latency (`Q_l`).
    pub latency: f64,
    /// Minimum acceptable reliability (`Q_r`).
    pub reliability: Reliability,
}

impl Requirements {
    /// Creates a requirement triple.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if cost or latency is not finite and positive
    /// (they are used as normalization denominators in Equation 1), or if
    /// reliability lies outside `(0, 1]`.
    pub fn new(cost: f64, latency: f64, reliability: f64) -> Result<Self, QosError> {
        if reliability <= 0.0 || reliability.is_nan() {
            return Err(QosError::InvalidRequirement(reliability));
        }
        let req = Requirements {
            cost,
            latency,
            reliability: Reliability::new(reliability)?,
        };
        req.validate()?;
        Ok(req)
    }

    /// Re-checks the invariants [`Requirements::new`] establishes: cost and
    /// latency finite and positive, reliability in `(0, 1]`.
    ///
    /// The fields are public (and reachable through deserialization), so
    /// consumers that divide by a requirement — Equation 1 normalizes every
    /// attribute by it — should validate before trusting a value they did
    /// not construct themselves.
    ///
    /// # Errors
    ///
    /// Returns [`QosError::InvalidRequirement`] naming the first offending
    /// attribute value.
    pub fn validate(&self) -> Result<(), QosError> {
        if !self.cost.is_finite() || self.cost <= 0.0 {
            return Err(QosError::InvalidRequirement(self.cost));
        }
        if !self.latency.is_finite() || self.latency <= 0.0 {
            return Err(QosError::InvalidRequirement(self.latency));
        }
        if self.reliability.value() <= 0.0 {
            return Err(QosError::InvalidRequirement(self.reliability.value()));
        }
        Ok(())
    }

    /// Returns the requirement for the given attribute (reliability as a
    /// probability).
    #[must_use]
    pub fn attribute(&self, attr: Attribute) -> f64 {
        match attr {
            Attribute::Cost => self.cost,
            Attribute::Latency => self.latency,
            Attribute::Reliability => self.reliability.value(),
        }
    }

    /// Returns `true` when every attribute of `qos` meets its requirement.
    #[must_use]
    pub fn satisfied_by(&self, qos: &Qos) -> bool {
        Attribute::ALL.iter().all(|&attr| {
            attr.polarity()
                .satisfies(qos.attribute(attr), self.attribute(attr))
        })
    }

    /// Returns the attributes of `qos` that fail their requirement, in
    /// `{c, l, r}` order. Empty when the requirements are satisfied.
    ///
    /// Per Section IV.C the gateway reports the estimated unsatisfied QoS to
    /// the client, which decides whether to continue with the request.
    #[must_use]
    pub fn violations(&self, qos: &Qos) -> Vec<Attribute> {
        Attribute::ALL
            .iter()
            .copied()
            .filter(|&attr| {
                !attr
                    .polarity()
                    .satisfies(qos.attribute(attr), self.attribute(attr))
            })
            .collect()
    }
}

impl fmt::Display for Requirements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[Qc={:.1}, Ql={:.1}, Qr={}]",
            self.cost, self.latency, self.reliability
        )
    }
}

/// Parses a requirement triple from `"cost,latency,reliability"` (e.g.
/// `"100,100,0.97"`), the format runtime control planes and CLIs use to
/// retune a live service's requirements.
impl std::str::FromStr for Requirements {
    type Err = QosError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(',').map(str::trim);
        let mut next = |what: &str| {
            parts
                .next()
                .filter(|p| !p.is_empty())
                .ok_or_else(|| QosError::Parse(format!("missing {what} in requirement {s:?}")))?
                .parse::<f64>()
                .map_err(|e| QosError::Parse(format!("bad {what} in requirement {s:?}: {e}")))
        };
        let cost = next("cost")?;
        let latency = next("latency")?;
        let reliability = next("reliability")?;
        if parts.next().is_some() {
            return Err(QosError::Parse(format!(
                "expected cost,latency,reliability — got extra fields in {s:?}"
            )));
        }
        Requirements::new(cost, latency, reliability)
    }
}

/// Environment-specific QoS of a set of equivalent microservices, indexed by
/// [`MsId`].
///
/// This is the table the gateway's *collector* maintains and the generator
/// consumes. Per Assumption 1, each id maps to the single best provider of
/// that microservice in the environment.
///
/// # Examples
///
/// ```
/// use qce_strategy::{EnvQos, MsId, Qos};
///
/// let env = EnvQos::from_qos(vec![
///     Qos::new(50.0, 50.0, 0.6)?,
///     Qos::new(100.0, 100.0, 0.6)?,
/// ]);
/// assert_eq!(env.len(), 2);
/// assert_eq!(env.get(MsId(1)).unwrap().cost, 100.0);
/// # Ok::<(), qce_strategy::QosError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnvQos {
    entries: Vec<Qos>,
}

impl EnvQos {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        EnvQos::default()
    }

    /// Creates a table from QoS entries; entry `i` describes `MsId(i)`.
    #[must_use]
    pub fn from_qos(entries: Vec<Qos>) -> Self {
        EnvQos { entries }
    }

    /// Builds a table from `(cost, latency, reliability)` triples, the format
    /// used in the paper's examples.
    ///
    /// # Errors
    ///
    /// Returns a [`QosError`] if any triple is out of domain.
    ///
    /// ```
    /// use qce_strategy::EnvQos;
    ///
    /// // Section III.D: microservices a–e of the fire-detection example.
    /// let env = EnvQos::from_triples(&[
    ///     (50.0, 50.0, 0.6),
    ///     (100.0, 100.0, 0.6),
    ///     (150.0, 150.0, 0.7),
    ///     (200.0, 200.0, 0.7),
    ///     (250.0, 250.0, 0.8),
    /// ])?;
    /// assert_eq!(env.len(), 5);
    /// # Ok::<(), qce_strategy::QosError>(())
    /// ```
    pub fn from_triples(triples: &[(f64, f64, f64)]) -> Result<Self, QosError> {
        let entries = triples
            .iter()
            .map(|&(c, l, r)| Qos::new(c, l, r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EnvQos { entries })
    }

    /// Returns the QoS of the given microservice, or `None` if the table has
    /// no entry for it.
    #[must_use]
    pub fn get(&self, id: MsId) -> Option<&Qos> {
        self.entries.get(id.0)
    }

    /// Appends an entry, returning the id it was assigned.
    pub fn push(&mut self, qos: Qos) -> MsId {
        self.entries.push(qos);
        MsId(self.entries.len() - 1)
    }

    /// Replaces the entry for `id`.
    ///
    /// # Errors
    ///
    /// [`EstimateError::MissingMicroservice`] if the table has no entry for
    /// `id`; the table is left as it was.
    pub fn set(&mut self, id: MsId, qos: Qos) -> Result<(), EstimateError> {
        let entry = self.entries.get_mut(id.0);
        *entry.ok_or(EstimateError::MissingMicroservice(id))? = qos;
        Ok(())
    }

    /// Number of microservices described by this table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ids of all microservices in the table, in ascending order.
    #[must_use]
    pub fn ids(&self) -> Vec<MsId> {
        (0..self.entries.len()).map(MsId).collect()
    }

    /// Iterates over `(id, qos)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MsId, &Qos)> {
        self.entries.iter().enumerate().map(|(i, q)| (MsId(i), q))
    }
}

impl FromIterator<Qos> for EnvQos {
    fn from_iter<I: IntoIterator<Item = Qos>>(iter: I) -> Self {
        EnvQos {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<Qos> for EnvQos {
    fn extend<I: IntoIterator<Item = Qos>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requirements_parse_from_comma_triple() {
        let req: Requirements = "100, 80, 0.97".parse().unwrap();
        assert_eq!(req, Requirements::new(100.0, 80.0, 0.97).unwrap());
        assert!("100,80".parse::<Requirements>().is_err(), "missing field");
        assert!("100,80,0.97,1".parse::<Requirements>().is_err(), "extra");
        assert!("x,80,0.97".parse::<Requirements>().is_err(), "non-numeric");
        assert!("100,80,1.5".parse::<Requirements>().is_err(), "range check");
    }

    #[test]
    fn ms_id_display_round_trips() {
        for i in [0usize, 1, 25, 26, 100] {
            let id = MsId(i);
            assert_eq!(MsId::from_name(&id.to_string()), Some(id));
        }
        assert_eq!(MsId::from_name("A"), None);
        assert_eq!(MsId::from_name(""), None);
        assert_eq!(MsId::from_name("msx"), None);
    }

    #[test]
    fn reliability_validation() {
        assert!(Reliability::new(0.0).is_ok());
        assert!(Reliability::new(1.0).is_ok());
        assert!(Reliability::new(-0.01).is_err());
        assert!(Reliability::new(1.01).is_err());
        assert!(Reliability::new(f64::NAN).is_err());
        assert!(Reliability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn reliability_percent_and_clamp() {
        assert_eq!(Reliability::clamped(1.5), Reliability::ALWAYS);
        assert_eq!(Reliability::clamped(-0.5), Reliability::NEVER);
        assert_eq!(Reliability::clamped(0.5).value(), 0.5);
    }

    #[test]
    fn reliability_clamp_reads_nan_as_never() {
        assert_eq!(Reliability::clamped(f64::NAN), Reliability::NEVER);
        assert_eq!(Reliability::clamped(f64::INFINITY), Reliability::ALWAYS);
        assert_eq!(Reliability::clamped(f64::NEG_INFINITY), Reliability::NEVER);
    }

    #[test]
    fn qos_validation() {
        assert!(Qos::new(1.0, 1.0, 0.5).is_ok());
        assert!(Qos::new(-1.0, 1.0, 0.5).is_err());
        assert!(Qos::new(1.0, -1.0, 0.5).is_err());
        assert!(Qos::new(1.0, 1.0, 2.0).is_err());
        assert!(Qos::new(f64::NAN, 1.0, 0.5).is_err());
    }

    #[test]
    fn attribute_access() {
        let q = Qos::new(10.0, 20.0, 0.8).unwrap();
        assert_eq!(q.attribute(Attribute::Cost), 10.0);
        assert_eq!(q.attribute(Attribute::Latency), 20.0);
        assert_eq!(q.attribute(Attribute::Reliability), 0.8);
    }

    #[test]
    fn polarity_comparison() {
        use std::cmp::Ordering;
        assert_eq!(Polarity::LowerIsBetter.compare(5.0, 5.0), Ordering::Equal);
        assert!(Polarity::LowerIsBetter.satisfies(5.0, 5.0));
        assert!(Polarity::LowerIsBetter.satisfies(4.0, 5.0));
        assert!(!Polarity::LowerIsBetter.satisfies(6.0, 5.0));
        assert!(Polarity::HigherIsBetter.satisfies(0.98, 0.97));
        assert!(!Polarity::HigherIsBetter.satisfies(0.96, 0.97));
    }

    #[test]
    fn requirements_validation() {
        assert!(Requirements::new(100.0, 100.0, 0.97).is_ok());
        assert!(Requirements::new(0.0, 100.0, 0.97).is_err());
        assert!(Requirements::new(100.0, -5.0, 0.97).is_err());
        assert!(Requirements::new(100.0, 100.0, 0.0).is_err());
        assert!(Requirements::new(100.0, 100.0, 1.5).is_err());
    }

    #[test]
    fn requirements_satisfaction_and_violations() {
        let req = Requirements::new(100.0, 100.0, 0.97).unwrap();
        let exact = Qos::new(100.0, 100.0, 0.97).unwrap();
        assert!(req.satisfied_by(&exact), "boundary values satisfy");
        let bad = Qos::new(120.0, 90.0, 0.90).unwrap();
        assert_eq!(
            req.violations(&bad),
            vec![Attribute::Cost, Attribute::Reliability]
        );
        assert!(req.violations(&exact).is_empty());
    }

    #[test]
    fn env_qos_accessors() {
        let mut env = EnvQos::from_triples(&[(1.0, 2.0, 0.5), (3.0, 4.0, 0.6)]).unwrap();
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
        assert_eq!(env.ids(), vec![MsId(0), MsId(1)]);
        assert!(env.get(MsId(2)).is_none());
        let id = env.push(Qos::new(5.0, 6.0, 0.7).unwrap());
        assert_eq!(id, MsId(2));
        env.set(MsId(0), Qos::new(9.0, 9.0, 0.9).unwrap()).unwrap();
        assert_eq!(env.get(MsId(0)).unwrap().cost, 9.0);
        let before = env.clone();
        assert_eq!(
            env.set(MsId(3), Qos::new(1.0, 1.0, 0.5).unwrap()),
            Err(EstimateError::MissingMicroservice(MsId(3)))
        );
        assert_eq!(env, before);
        let pairs: Vec<_> = env.iter().map(|(id, q)| (id.0, q.cost)).collect();
        assert_eq!(pairs, vec![(0, 9.0), (1, 3.0), (2, 5.0)]);
    }

    #[test]
    fn env_qos_collect_and_extend() {
        let qos = [
            Qos::new(1.0, 1.0, 0.5).unwrap(),
            Qos::new(2.0, 2.0, 0.6).unwrap(),
        ];
        let mut env: EnvQos = qos.iter().copied().collect();
        assert_eq!(env.len(), 2);
        env.extend(qos.iter().copied());
        assert_eq!(env.len(), 4);
    }

    #[test]
    fn display_impls() {
        let q = Qos::new(50.0, 60.0, 0.7).unwrap();
        assert_eq!(
            q.to_string(),
            "[cost=50.0, latency=60.0, reliability=70.0%]"
        );
        let req = Requirements::new(100.0, 100.0, 0.97).unwrap();
        assert!(req.to_string().contains("Qr=97.0%"));
        assert_eq!(Attribute::Cost.to_string(), "cost");
    }

    #[test]
    fn a_reliability_is_read_only_within_its_domain() {
        let read = |json: &str| serde_json::from_str::<Reliability>(json);
        assert_eq!(read("0.7").unwrap(), Reliability::new(0.7).unwrap());
        assert_eq!(read("1.0").unwrap(), Reliability::ALWAYS);
        for json in ["1.5", "-0.2", "1.0000001"] {
            assert!(read(json).is_err(), "{json}");
        }
        let qos = r#"{"cost":1.0,"latency":1.0,"reliability":1.5}"#;
        assert!(serde_json::from_str::<Qos>(qos).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let q = Qos::new(50.0, 60.0, 0.7).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: Qos = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
        let env = EnvQos::from_qos(vec![q]);
        let json = serde_json::to_string(&env).unwrap();
        let back: EnvQos = serde_json::from_str(&json).unwrap();
        assert_eq!(env, back);
    }
}
